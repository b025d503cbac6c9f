// The benchmark's three workloads and the run that measures one of them.
// README.md in this directory says why each workload exists and which
// layer each metric belongs to; the metrics a run emits are the ones
// BENCHMARK.json at the repository root lists, in its order.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring time; passes repeat until it is spent
  bool trace = false;     ///< per-layer run instead of the end-to-end one
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< designs attempted, over every pass
  std::uint64_t failed = 0;     ///< designs that failed an output check
  std::vector<metric> metrics;  ///< end-to-end, or per-layer when traced
  /// Run context (nproc, build type, seed, sample counts) and the raw
  /// sign-off numbers; printed, but not among BENCHMARK.json's metrics.
  std::vector<metric> details;
  std::vector<std::string> problems;  ///< every failed output check
  std::string report;  ///< human-readable time attribution (traced runs)
};

const std::vector<std::string>& workload_names();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
run_result run_workload(const run_config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
