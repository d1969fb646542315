// streambench: the StreamRel end-to-end benchmark.
//
//   streambench --workload <dashboard|archive_report|wire_subscribe>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--out-dir <dir>] [--parallelism <n>]
//
// Prints one JSON result object as the last line of standard output. See
// ../README.md for what each workload and metric means.
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "harness.h"

int main(int argc, char** argv) {
  streambench::Options options;
  options.start_ns = streambench::NowNs();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) streambench::Die("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--parallelism") {
      options.parallelism = std::atoi(value);
    } else {
      streambench::Die("unknown flag " + flag);
    }
  }
  if (options.seconds < 1) streambench::Die("--seconds must be >= 1");
  if (options.parallelism < 1) streambench::Die("--parallelism must be >= 1");
  // Shard workers plus the traced probe's server would exceed nproc.
  if (options.parallelism > 1 && options.trace) {
    streambench::Die("--parallelism runs untraced only");
  }
  return streambench::RunWorkload(options);
}
