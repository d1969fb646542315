#ifndef STREAMBENCH_BENCH_H_
#define STREAMBENCH_BENCH_H_

#include <cstdint>
#include <string>

namespace streambench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans.
  std::string out_dir = ".bench_out";
  /// SET PARALLELISM for the dashboard engine (diagnostic; 1 = serial).
  int parallelism = 1;
  /// Process start, for setup_s.
  int64_t start_ns = 0;
};

/// Runs one workload and prints the result line; returns the exit code.
int RunWorkload(const Options& options);

}  // namespace streambench

#endif  // STREAMBENCH_BENCH_H_
