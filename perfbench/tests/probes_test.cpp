// Tests of the benchmark's own code: the downstream decorator, the
// pass-by-pass replay, and the metric names against BENCHMARK.json.
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/downstream.h"
#include "engine/engine.h"
#include "probes.h"
#include "telemetry/json.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace {

using perfbench::captured_cone;
using perfbench::oracle;
using perfbench::timed_tool;

isdc::synth::synthesis_options lowering_only() {
  isdc::synth::synthesis_options o;
  o.opt_rounds = 0;
  o.use_rewrite = false;
  o.use_refactor = false;
  return o;
}

TEST(TimedToolTest, ForwardsNameAndAnswersAndCountsCallsExactly) {
  const isdc::core::aig_depth_downstream inner(80.0, 0.0, lowering_only());
  const isdc::ir::graph g = isdc::workloads::build_rrot();
  for (const bool trace : {false, true}) {
    const timed_tool tool(inner, trace);
    EXPECT_EQ(tool.name(), inner.name());
    constexpr int kThreads = 4;
    constexpr int kCallsPerThread = 25;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kCallsPerThread; ++i) {
          EXPECT_EQ(tool.subgraph_delay_ps(g), inner.subgraph_delay_ps(g));
        }
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    EXPECT_EQ(tool.calls(), kThreads * kCallsPerThread);
    const std::size_t recorded = trace ? kThreads * kCallsPerThread : 0;
    EXPECT_EQ(tool.records().size(), recorded);
    EXPECT_EQ(tool.cones().size(), recorded);
    if (trace) {
      EXPECT_GT(tool.tracing_seconds(), 0.0);
    } else {
      EXPECT_EQ(tool.tracing_seconds(), 0.0);
    }
  }
}

TEST(TimedToolTest, LeavesSchedulesUnchanged) {
  const isdc::core::aig_depth_downstream inner(80.0, 0.0, lowering_only());
  const isdc::ir::graph g = isdc::workloads::build_rrot();
  isdc::core::isdc_options opts;
  opts.max_iterations = 3;
  opts.subgraphs_per_iteration = 4;
  isdc::engine::engine bare;
  isdc::engine::engine wrapped;
  const timed_tool tool(inner, /*trace=*/true);
  const auto plain = bare.run(g, inner, opts);
  const auto timed = wrapped.run(g, tool, opts);
  EXPECT_EQ(plain.final_schedule, timed.final_schedule);
  EXPECT_EQ(plain.history.size(), timed.history.size());
  EXPECT_GT(tool.calls(), 0u);
  EXPECT_LE(tool.calls(), wrapped.cache().stats().misses);
}

TEST(ReplayTest, SynthesisReplayMatchesTheToolOnARegistryDesign) {
  const isdc::core::synthesis_downstream inner;
  const timed_tool tool(inner, /*trace=*/true);
  const isdc::ir::graph g = isdc::workloads::build_rrot();
  isdc::core::isdc_options opts;
  opts.max_iterations = 2;
  opts.subgraphs_per_iteration = 4;
  isdc::engine::engine e;
  e.run(g, tool, opts);
  const std::vector<captured_cone> cones = tool.cones();
  ASSERT_FALSE(cones.empty());

  oracle flow;  // default synthesis options, as synthesis_downstream
  const perfbench::replay_totals t = perfbench::replay_all(cones, flow, 2);
  EXPECT_EQ(t.cones, cones.size());
  EXPECT_EQ(t.mismatches, 0u);
  EXPECT_GT(t.ands_lowered, 0u);
  EXPECT_GT(t.rewrite_s + t.refactor_s + t.techmap_s + t.sta_s, 0.0);

  // A wrong expectation is reported, not silently accepted.
  const perfbench::replay_totals off = perfbench::replay_cone(
      cones.front().graph, cones.front().delay_ps + 1.0, flow);
  EXPECT_EQ(off.mismatches, 1u);
}

TEST(ReplayTest, AigDepthReplayMatchesTheTool) {
  const isdc::core::aig_depth_downstream inner(80.0, 5.0, lowering_only());
  oracle flow;
  flow.flow = oracle::kind::aig_depth;
  flow.synth = lowering_only();
  flow.offset_ps = 5.0;
  const isdc::ir::graph g = isdc::workloads::build_crc32(8);
  const perfbench::replay_totals t =
      perfbench::replay_cone(g, inner.subgraph_delay_ps(g), flow);
  EXPECT_EQ(t.mismatches, 0u);
  EXPECT_EQ(t.rewrite_s + t.refactor_s + t.techmap_s + t.sta_s, 0.0);
}

TEST(StatsTest, MedianAndQuantileInterpolate) {
  EXPECT_EQ(perfbench::median({}), 0.0);
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 4.6);
}

/// The `name` of every entry under `key` in BENCHMARK.json, in file order.
std::vector<std::string> names_in(const std::string& key) {
  std::ifstream in(PERFBENCH_SPEC_PATH);
  std::stringstream text;
  text << in.rdbuf();
  const auto spec = isdc::telemetry::json::parse(text.str());
  std::vector<std::string> out;
  for (const auto& entry : spec.at(key).as_array()) {
    out.push_back(entry.at("name").as_string());
  }
  return out;
}

TEST(MetricNamesTest, WorkloadNamesAreListedInBenchmarkJson) {
  EXPECT_EQ(perfbench::workload_names(), names_in("workloads"));
}

TEST(MetricNamesTest, EmittedMetricsAreWellFormedAndListedInBenchmarkJson) {
  // The cheapest workload, one pass, in both modes.
  const std::regex well_formed("[A-Za-z0-9_.-]+");
  for (const bool trace : {false, true}) {
    perfbench::run_config config;
    config.workload = "fleet_async_latency";
    config.seconds = 0.0;
    config.trace = trace;
    const perfbench::run_result r = perfbench::run_workload(config);
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.failed, 0u);
    std::vector<std::string> emitted;
    for (const perfbench::metric& m : r.metrics) {
      EXPECT_TRUE(std::regex_match(m.name, well_formed)) << m.name;
      emitted.push_back(m.name);
    }
    EXPECT_EQ(emitted, names_in(trace ? "per_layer" : "end_to_end"));
  }
}

TEST(RunTest, UnknownWorkloadIsRejected) {
  perfbench::run_config config;
  config.workload = "no_such_workload";
  EXPECT_THROW(perfbench::run_workload(config), std::invalid_argument);
}

}  // namespace
