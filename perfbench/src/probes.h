// Per-layer probes the benchmark wraps around the library's public API.
// Nothing here is compiled into the library: the downstream decorator sits
// at the core::downstream_tool boundary, the replay re-runs each captured
// cone through the public lower/aig/synth passes, and the scheduler probe
// times the public sched entry points. Each probe is a call from outside,
// timed with std::chrono::steady_clock.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/downstream.h"
#include "ir/graph.h"
#include "sched/sdc_scheduler.h"
#include "synth/characterizer.h"
#include "synth/synthesis.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// an empty list.
double median(std::vector<double> xs);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty list.
double quantile(std::vector<double> xs, double q);

/// One downstream call seen by timed_tool in tracing mode.
struct call_record {
  double seconds = 0.0;
  std::size_t cone_nodes = 0;
};

/// A cone handed to the downstream tool, with the delay the tool returned.
struct captured_cone {
  isdc::ir::graph graph;
  double delay_ps = 0.0;
};

/// Pass-through decorator at the downstream boundary. name() and every
/// answer are the inner tool's, so the engine's cache keys and schedules
/// are unchanged. It always counts calls; with `trace` it also times each
/// call and keeps a copy of every cone for the replay.
class timed_tool final : public isdc::core::downstream_tool {
public:
  timed_tool(const isdc::core::downstream_tool& inner, bool trace)
      : inner_(inner), trace_(trace) {}

  double subgraph_delay_ps(const isdc::ir::graph& sub) const override;
  std::string name() const override { return inner_.name(); }

  std::uint64_t calls() const { return calls_.load(); }
  /// Tracing mode only; empty otherwise.
  std::vector<call_record> records() const;
  std::vector<captured_cone> cones() const;
  /// Tracing mode only: time spent recording (lock wait, record, cone
  /// copy) after each inner call returned, summed over calls. This is
  /// what tracing adds to a call; 0 without `trace`.
  double tracing_seconds() const;

private:
  const isdc::core::downstream_tool& inner_;
  const bool trace_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::mutex mutex_;
  mutable std::vector<call_record> records_;
  mutable std::vector<captured_cone> cones_;
  mutable double tracing_s_ = 0.0;
};

/// What a downstream tool computes, spelled out so the replay can repeat
/// it pass by pass: the full synthesis flow, or optimized AIG depth times
/// a per-level delay.
struct oracle {
  enum class kind { synthesis, aig_depth };
  kind flow = kind::synthesis;
  isdc::synth::synthesis_options synth;
  double ps_per_level = 80.0;
  double offset_ps = 0.0;
};

/// Busy time and sizes of the replayed passes, summed over cones.
struct replay_totals {
  double lower_s = 0.0;
  double balance_s = 0.0;  ///< includes the AIG cleanups around optimize
  double rewrite_s = 0.0;
  double refactor_s = 0.0;
  double techmap_s = 0.0;
  double sta_s = 0.0;
  std::uint64_t ands_lowered = 0;
  std::uint64_t ands_optimized = 0;
  std::uint64_t cones = 0;
  std::uint64_t mismatches = 0;  ///< replayed delay != the tool's delay

  void add(const replay_totals& other);
};

/// Replays one cone: lower::lower_graph, then synth::optimize's rounds of
/// aig::balance / rewrite / refactor / balance with its convergence rule,
/// then (synthesis flow) synth::technology_map and synth::analyze.
/// Counts a mismatch unless the result equals `expected_ps` exactly.
replay_totals replay_cone(const isdc::ir::graph& cone, double expected_ps,
                          const oracle& flow);

/// replay_cone over every cone, `threads` cones at a time.
replay_totals replay_all(const std::vector<captured_cone>& cones,
                         const oracle& flow, int threads);

/// The scheduler layer timed from outside, on one design's naive matrix.
struct sched_totals {
  double initial_matrix_s = 0.0;  ///< sched::delay_matrix::initial
  double sdc_solve_s = 0.0;       ///< sched::sdc_schedule (cold)
  std::uint64_t constraints = 0;
  std::uint64_t timing_constraints = 0;
  std::uint64_t ssp_paths = 0;

  void add(const sched_totals& other);
};

sched_totals probe_sched(const isdc::ir::graph& g,
                         const isdc::synth::delay_model& model,
                         const isdc::sched::scheduler_options& options);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
