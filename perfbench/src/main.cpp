// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Human-readable lines go first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace 1 the per-layer ones. A traced run measures
// its tracing overhead against untraced passes of its own. Exits 0
// whenever a result was printed (correct or not), 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
            << "workloads:";
  for (const std::string& w : perfbench::workload_names()) {
    std::cerr << " " << w;
  }
  std::cerr << "\n";
  return 2;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<perfbench::metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      config.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else {
      return usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) {
    return usage("--workload is required");
  }

  perfbench::run_result result;
  try {
    result = perfbench::run_workload(config);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }

  std::cout << result.report;
  for (const std::string& p : result.problems) {
    std::cout << "check failed: " << p << "\n";
  }
  std::cout << "{\"perfbench\": {\"workload\": \"" << config.workload
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"trace\": " << (config.trace ? 1 : 0)
            << ", \"details\": " << metrics_json(result.details) << "}}\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_json(result.metrics) << "}"
            << std::endl;
  return 0;
}
