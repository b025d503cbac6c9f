#include "probes.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "aig/balance.h"
#include "aig/refactor.h"
#include "aig/rewrite.h"
#include "lower/lowering.h"
#include "sched/delay_matrix.h"
#include "support/thread_pool.h"
#include "synth/sta.h"
#include "synth/techmap.h"

namespace perfbench {

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double timed_tool::subgraph_delay_ps(const isdc::ir::graph& sub) const {
  calls_.fetch_add(1);
  if (!trace_) {
    return inner_.subgraph_delay_ps(sub);
  }
  const auto start = clock_type::now();
  const double delay_ps = inner_.subgraph_delay_ps(sub);
  const auto end = clock_type::now();
  const std::lock_guard lock(mutex_);
  records_.push_back(
      {.seconds = std::chrono::duration<double>(end - start).count(),
       .cone_nodes = sub.num_nodes()});
  cones_.push_back({.graph = sub, .delay_ps = delay_ps});
  tracing_s_ += seconds_since(end);
  return delay_ps;
}

double timed_tool::tracing_seconds() const {
  const std::lock_guard lock(mutex_);
  return tracing_s_;
}

std::vector<call_record> timed_tool::records() const {
  const std::lock_guard lock(mutex_);
  return records_;
}

std::vector<captured_cone> timed_tool::cones() const {
  const std::lock_guard lock(mutex_);
  return cones_;
}

void replay_totals::add(const replay_totals& other) {
  lower_s += other.lower_s;
  balance_s += other.balance_s;
  rewrite_s += other.rewrite_s;
  refactor_s += other.refactor_s;
  techmap_s += other.techmap_s;
  sta_s += other.sta_s;
  ands_lowered += other.ands_lowered;
  ands_optimized += other.ands_optimized;
  cones += other.cones;
  mismatches += other.mismatches;
}

namespace {

/// Runs `fn`, adds its wall time to `bucket` and returns its result.
template <typename F>
auto timed(double& bucket, F&& fn) {
  const auto start = clock_type::now();
  auto result = fn();
  bucket += seconds_since(start);
  return result;
}

}  // namespace

replay_totals replay_cone(const isdc::ir::graph& cone, double expected_ps,
                          const oracle& flow) {
  namespace aig = isdc::aig;
  replay_totals t;
  t.cones = 1;
  // synthesize_graph / aig_depth_downstream: optimize(lower(g).net.cleanup()).
  aig::aig g = timed(t.lower_s, [&] {
    return isdc::lower::lower_graph(cone).net.cleanup();
  });
  t.ands_lowered = g.num_ands();
  // synth::optimize, pass by pass, with its convergence rule.
  const isdc::synth::synthesis_options& o = flow.synth;
  for (int round = 0; round < o.opt_rounds; ++round) {
    const int depth_before = g.depth();
    const std::size_t size_before = g.num_ands();
    g = timed(t.balance_s, [&] { return aig::balance(g); });
    if (o.use_rewrite) {
      g = timed(t.rewrite_s, [&] { return aig::rewrite(g); });
    }
    if (o.use_refactor) {
      g = timed(t.refactor_s, [&] { return aig::refactor(g); });
    }
    g = timed(t.balance_s, [&] { return aig::balance(g); });
    if (g.depth() >= depth_before && g.num_ands() >= size_before) {
      break;
    }
  }
  g = timed(t.balance_s, [&] { return g.cleanup(); });
  t.ands_optimized = g.num_ands();

  double delay_ps = 0.0;
  if (flow.flow == oracle::kind::synthesis) {
    const isdc::synth::netlist mapped = timed(t.techmap_s, [&] {
      return isdc::synth::technology_map(g, isdc::synth::default_library(),
                                         o.mapping);
    });
    delay_ps = timed(t.sta_s, [&] {
      return isdc::synth::analyze(mapped).critical_delay_ps;
    });
  } else {
    delay_ps = flow.offset_ps + flow.ps_per_level * g.depth();
  }
  t.mismatches = delay_ps == expected_ps ? 0 : 1;
  return t;
}

replay_totals replay_all(const std::vector<captured_cone>& cones,
                         const oracle& flow, int threads) {
  std::vector<replay_totals> per_cone(cones.size());
  isdc::thread_pool pool(static_cast<std::size_t>(std::max(threads, 1)));
  pool.parallel_for(cones.size(), [&](std::size_t i) {
    per_cone[i] = replay_cone(cones[i].graph, cones[i].delay_ps, flow);
  });
  replay_totals total;
  for (const replay_totals& t : per_cone) {
    total.add(t);
  }
  return total;
}

void sched_totals::add(const sched_totals& other) {
  initial_matrix_s += other.initial_matrix_s;
  sdc_solve_s += other.sdc_solve_s;
  constraints += other.constraints;
  timing_constraints += other.timing_constraints;
  ssp_paths += other.ssp_paths;
}

sched_totals probe_sched(const isdc::ir::graph& g,
                         const isdc::synth::delay_model& model,
                         const isdc::sched::scheduler_options& options) {
  sched_totals t;
  const isdc::sched::delay_matrix naive = timed(t.initial_matrix_s, [&] {
    return isdc::sched::delay_matrix::initial(
        g, [&](isdc::ir::node_id v) { return model.node_delay_ps(g, v); });
  });
  isdc::sched::scheduler_stats stats;
  timed(t.sdc_solve_s, [&] {
    return isdc::sched::sdc_schedule(g, naive, options, &stats);
  });
  t.constraints = stats.num_constraints;
  t.timing_constraints = stats.num_timing_constraints;
  t.ssp_paths = stats.ssp_paths;
  return t;
}

}  // namespace perfbench
