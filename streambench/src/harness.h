// Measurement scaffolding shared by the workloads: clocks, order
// statistics, the span tracer, and the one-line JSON result.
#ifndef STREAMBENCH_HARNESS_H_
#define STREAMBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace streambench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Aborts the run without a result line: a benchmark must never report
/// figures measured over failed set-up.
[[noreturn]] inline void Die(const std::string& what) {
  fprintf(stderr, "streambench: %s\n", what.c_str());
  fflush(stderr);
  std::_Exit(2);
}

inline void Check(const streamrel::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T CheckResult(streamrel::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return result.TakeValue();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the result object as the last line of standard output.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

/// Peak resident set of this process in MB (getrusage).
double PeakRssMb();
/// Threads of this process right now (/proc/self/status).
int CurrentThreads();
/// CPUs this process may run on — what `nproc` prints (taken at the first
/// call, before any pinning).
int UsableCpus();

/// Times a fixed spin on each usable CPU and pins every thread of this
/// process to the `want` fastest. On a shared host some CPUs run at a
/// fraction of full speed for long stretches (their sibling hyperthread is
/// busy elsewhere); a run that lands there measures the neighbours. Pinning
/// acts on this process only.
void PinToFastestCpus(int want);

/// Spans around the benchmark's calls into the engine's layers. Spans are
/// kept in memory and written out once, after the run; a disabled tracer
/// records nothing and costs one branch per span.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    int64_t arg = 0;  // rows handled, where the call has rows
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int32_t Begin(const char* name) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = NowNs();
    spans_.push_back(span);
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void End(int32_t id) {
    if (id < 0) return;
    spans_[id].end_ns = NowNs();
    stack_.pop_back();
  }

  void SetArg(int32_t id, int64_t arg) {
    if (id >= 0) spans_[id].arg = arg;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total self time (duration minus the time covered by child spans) and
  /// span count per span name.
  struct SelfTime {
    int64_t self_ns = 0;
    int64_t total_ns = 0;
    int64_t count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Writes every span as JSON (one object per line inside an array).
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span; `tracer` may be null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  int32_t id() const { return id_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace streambench

#endif  // STREAMBENCH_HARNESS_H_
