#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

namespace streambench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char num[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].value;
    if (!std::isfinite(v)) v = 0;
    snprintf(num, sizeof(num), "%.10g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  printf("%s\n", out.c_str());
  fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int CurrentThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

namespace {

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

int64_t SpinNs() {
  volatile uint64_t x = 0;
  const int64_t start = NowNs();
  for (uint64_t i = 0; i < 1'000'000; ++i) x = x + i * 3;
  return NowNs() - start;
}

}  // namespace

int UsableCpus() {
  return std::max<int>(1, static_cast<int>(AllowedCpus().size()));
}

void PinToFastestCpus(int want) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() <= 1) return;
  std::vector<std::pair<int64_t, int>> speed;
  for (int cpu : cpus) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    std::vector<double> ns;
    for (int i = 0; i < 3; ++i) ns.push_back(static_cast<double>(SpinNs()));
    speed.push_back({static_cast<int64_t>(Median(ns)), cpu});
  }
  std::sort(speed.begin(), speed.end());
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (size_t i = 0; i < speed.size() && i < static_cast<size_t>(want); ++i) {
    CPU_SET(speed[i].second, &mask);
  }
  // Every thread of the process, the server's included.
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::atoi(task.path().filename().c_str()));
    if (tid > 0) sched_setaffinity(tid, sizeof(mask), &mask);
  }
  sched_setaffinity(0, sizeof(mask), &mask);
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    SelfTime& st = out[spans_[i].name];
    st.total_ns += dur;
    st.self_ns += dur - child_ns[i];
    st.count += 1;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    fprintf(f,
            "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
            "\"end_ns\": %lld, \"parent\": %d, \"rows\": %lld}%s\n",
            i, s.name, static_cast<long long>(s.start_ns - base),
            static_cast<long long>(s.end_ns - base), s.parent,
            static_cast<long long>(s.arg),
            i + 1 < spans_.size() ? "," : "");
  }
  fprintf(f, "]\n");
  return fclose(f) == 0;
}

}  // namespace streambench
