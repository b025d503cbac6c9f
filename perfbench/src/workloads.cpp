#include "workloads.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "backend/registry.h"
#include "core/isdc_scheduler.h"
#include "engine/engine.h"
#include "engine/fleet.h"
#include "probes.h"
#include "sched/metrics.h"
#include "sched/validate.h"
#include "support/mem.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "telemetry/metrics.h"
#include "workloads/registry.h"

namespace perfbench {
namespace {

namespace ir = isdc::ir;

/// Each run sets up at least kMinSetups times and, when set-ups are cheap,
/// until kMinSetupSeconds are spent (at most kMaxSetups), so setup_s is a
/// median of enough samples to be steady even at ~20 ms per set-up.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 50;
constexpr double kMinSetupSeconds = 1.0;

/// The sign-off repeats until kMinVerifySeconds of wall time are spent (at
/// most kMaxVerifies times) and verify_s is the median: a sub-second
/// 4-wide sign-off alone spreads ~20% run to run.
constexpr std::size_t kMaxVerifies = 5;
constexpr double kMinVerifySeconds = 5.0;

/// A sync run with a single pass schedules its cheapest designs again, up
/// to this much pass-1 time, to check that they repeat (see recheck()).
constexpr double kRecheckSeconds = 5.0;

/// Width of the sign-off and the replay: the 4 cores the workloads are
/// sized for (sync evaluation is 4 wide too).
constexpr int kThreads = 4;

const char* const kStages[] = {"enumerate", "rank",   "expand",
                               "evaluate",  "update", "resolve"};

struct design {
  std::string name;
  double clock_ps = 2500.0;
  ir::graph graph;
};

struct workload_def {
  std::string name;
  bool fleet = false;  ///< through engine::fleet instead of engine::engine
  int shards = 4;
  std::string tool_spec;  ///< backend::make_tool spec of the downstream tool
  oracle flow;            ///< what that tool computes, for the replay
  isdc::core::isdc_options options;
  std::vector<design> (*build)(std::uint64_t seed) = nullptr;
};

std::vector<design> registry_designs(std::uint64_t /*seed*/) {
  std::vector<design> out;
  for (const isdc::workloads::workload_spec& spec :
       isdc::workloads::all_workloads()) {
    out.push_back({spec.name, spec.clock_period_ps, spec.build()});
  }
  return out;
}

std::vector<design> mixed_dag_design(std::uint64_t seed) {
  std::vector<design> out;
  out.push_back({"mixed_dag_3000_seed" + std::to_string(seed), 2500.0,
                 isdc::workloads::build_mixed_dag(seed, 3000)});
  return out;
}

/// The lowering-only flow: no balance/rewrite/refactor rounds.
isdc::synth::synthesis_options lowering_only() {
  isdc::synth::synthesis_options o;
  o.opt_rounds = 0;
  o.use_rewrite = false;
  o.use_refactor = false;
  return o;
}

const std::vector<workload_def>& definitions() {
  static const std::vector<workload_def> defs = [] {
    std::vector<workload_def> d;

    // The paper's flow: every Table I design, real synthesis feedback.
    workload_def table1;
    table1.name = "table1_synth";
    table1.tool_spec = "synthesis";
    table1.flow.flow = oracle::kind::synthesis;
    table1.options.num_threads = kThreads;
    table1.options.max_iterations = 15;
    table1.options.subgraphs_per_iteration = 16;
    table1.build = registry_designs;
    d.push_back(table1);

    // Latency hiding: a cheap oracle behind 50 ms of injected latency,
    // every design through one fleet with async evaluation.
    workload_def fleet;
    fleet.name = "fleet_async_latency";
    fleet.fleet = true;
    fleet.shards = 4;
    fleet.tool_spec = "latency(aig-depth:rounds=0,rewrite=0,refactor=0):ms=50";
    fleet.flow.flow = oracle::kind::aig_depth;
    fleet.flow.synth = lowering_only();
    fleet.options.synth = lowering_only();
    fleet.options.async_evaluation = true;
    fleet.build = registry_designs;
    d.push_back(fleet);

    // Scheduler scaling: one large irregular design, the same cheap
    // oracle without latency, so sched/sdc dominate.
    workload_def dag;
    dag.name = "dag3k_sdc";
    dag.tool_spec = "aig-depth:rounds=0,rewrite=0,refactor=0";
    dag.flow.flow = oracle::kind::aig_depth;
    dag.flow.synth = lowering_only();
    dag.options.synth = lowering_only();
    dag.build = mixed_dag_design;
    d.push_back(dag);
    return d;
  }();
  return defs;
}

/// Everything a pass needs before it schedules: the designs, a cold
/// characterizer (warmed here), a cold engine or fleet, the tool.
struct setup_state {
  std::vector<design> designs;
  std::unique_ptr<isdc::synth::delay_model> model;  // engine workloads
  std::unique_ptr<isdc::engine::engine> engine;     // engine workloads
  std::unique_ptr<isdc::engine::fleet> fleet;       // the fleet workload
  isdc::backend::tool_handle tool;
  double setup_s = 0.0;
  double characterize_s = 0.0;

  const isdc::synth::delay_model& delays() const {
    return fleet ? fleet->model() : *model;
  }
};

setup_state set_up(const workload_def& def, std::uint64_t seed) {
  setup_state s;
  const auto start = clock_type::now();
  s.designs = def.build(seed);
  if (def.fleet) {
    isdc::engine::fleet_options fo;
    fo.shards = def.shards;
    fo.isdc = def.options;
    s.fleet = std::make_unique<isdc::engine::fleet>(fo);
  } else {
    s.model = std::make_unique<isdc::synth::delay_model>(def.options.synth);
    s.engine = std::make_unique<isdc::engine::engine>();
  }
  const auto warm = clock_type::now();
  for (const design& d : s.designs) {
    for (ir::node_id v = 0; v < d.graph.num_nodes(); ++v) {
      s.delays().node_delay_ps(d.graph, v);
    }
  }
  s.characterize_s = seconds_since(warm);
  s.tool = isdc::backend::make_tool(def.tool_spec);
  s.setup_s = seconds_since(start);
  return s;
}

struct design_run {
  isdc::core::isdc_result result;
  double seconds = 0.0;
  std::string error;  ///< empty when the run produced a result
};

struct pass_result {
  double schedule_s = 0.0;
  std::vector<design_run> runs;  ///< one per design, in design order
};

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

pass_result run_pass(const workload_def& def, setup_state& s,
                     const isdc::core::downstream_tool& tool) {
  pass_result p;
  p.runs.resize(s.designs.size());
  if (def.fleet) {
    std::vector<isdc::engine::fleet_job> jobs;
    for (const design& d : s.designs) {
      jobs.push_back(
          {.name = d.name, .graph = &d.graph, .clock_period_ps = d.clock_ps});
    }
    isdc::engine::fleet_report report = s.fleet->run(jobs, tool);
    p.schedule_s = report.wall_seconds;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      isdc::engine::fleet_result& fr = report.results[i];
      p.runs[i].seconds = fr.seconds;
      if (fr.error != nullptr) {
        p.runs[i].error = describe(fr.error);
      } else if (fr.cancelled) {
        p.runs[i].error = "cancelled";
      } else {
        p.runs[i].result = std::move(fr.result);
      }
    }
    return p;
  }
  for (std::size_t i = 0; i < s.designs.size(); ++i) {
    const design& d = s.designs[i];
    isdc::core::isdc_options opts = def.options;
    opts.base.clock_period_ps = d.clock_ps;
    const auto start = clock_type::now();
    try {
      p.runs[i].result = s.engine->run(d.graph, tool, opts, s.model.get());
    } catch (const std::exception& e) {
      p.runs[i].error = e.what();
    }
    p.runs[i].seconds = seconds_since(start);
    p.schedule_s += p.runs[i].seconds;
  }
  return p;
}

/// The output checks of one pass and its deterministic quality figures.
struct quality {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double register_ratio = 0.0;  ///< geomean final / baseline register bits
  double stage_ratio = 0.0;     ///< geomean final / baseline stages
  std::vector<std::int64_t> final_bits;
  std::vector<int> final_stages;
  std::vector<std::string> problems;
};

quality assess(const std::vector<design>& designs, const pass_result& p) {
  quality q;
  std::vector<double> regs;
  std::vector<double> stages;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const design& d = designs[i];
    const design_run& r = p.runs[i];
    ++q.attempted;
    auto fail = [&](const std::string& why) {
      ++q.failed;
      q.problems.push_back(d.name + ": " + why);
    };
    if (!r.error.empty()) {
      fail("threw: " + r.error);
      continue;
    }
    const isdc::core::isdc_result& res = r.result;
    if (res.delays.size() != d.graph.num_nodes()) {
      fail("result carries no delay matrix to validate against");
      continue;
    }
    const std::vector<std::string> violations = isdc::sched::validate_schedule(
        d.graph, res.final_schedule, res.delays, d.clock_ps);
    if (!violations.empty()) {
      fail("illegal final schedule: " + violations.front());
      continue;
    }
    const std::int64_t base_bits =
        isdc::sched::register_bits(d.graph, res.initial);
    const std::int64_t final_bits =
        isdc::sched::register_bits(d.graph, res.final_schedule);
    if (final_bits > base_bits) {
      fail("final register bits " + std::to_string(final_bits) +
           " exceed the baseline's " + std::to_string(base_bits));
      continue;
    }
    regs.push_back(static_cast<double>(final_bits) /
                   static_cast<double>(base_bits));
    stages.push_back(static_cast<double>(res.final_schedule.num_stages()) /
                     res.initial.num_stages());
    q.final_bits.push_back(final_bits);
    q.final_stages.push_back(res.final_schedule.num_stages());
  }
  q.register_ratio = regs.empty() ? 0.0 : isdc::geomean(regs);
  q.stage_ratio = stages.empty() ? 0.0 : isdc::geomean(stages);
  return q;
}

/// Schedules again, from a cold set-up, the designs whose pass-1 times fit
/// together in kRecheckSeconds (cheapest first), and reports each whose
/// final register bits or stages differ from pass 1 (`first`, in which no
/// design failed). A table1_synth pass takes ~50 s, so an untraced run has
/// time for one pass only; this is how it still checks that its schedules
/// repeat bit for bit. Returns the number of designs scheduled again.
std::size_t recheck(const workload_def& def, std::uint64_t seed,
                    const std::vector<double>& first_seconds,
                    const quality& first, run_result& out) {
  std::vector<std::size_t> order(first_seconds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return first_seconds[a] < first_seconds[b];
                   });
  std::vector<std::size_t> picked;
  double budget_s = 0.0;
  for (const std::size_t i : order) {
    budget_s += first_seconds[i];
    if (budget_s > kRecheckSeconds) {
      break;
    }
    picked.push_back(i);
  }
  if (picked.empty()) {
    return 0;
  }
  std::sort(picked.begin(), picked.end());
  setup_state s = set_up(def, seed);
  std::vector<design> subset;
  for (const std::size_t i : picked) {
    subset.push_back(std::move(s.designs[i]));
  }
  s.designs = std::move(subset);
  const pass_result p = run_pass(def, s, s.tool.tool());
  const quality q = assess(s.designs, p);
  out.attempted += q.attempted;
  out.failed += q.failed;
  out.problems.insert(out.problems.end(), q.problems.begin(),
                      q.problems.end());
  for (std::size_t k = 0; q.failed == 0 && k < picked.size(); ++k) {
    if (q.final_bits[k] != first.final_bits[picked[k]] ||
        q.final_stages[k] != first.final_stages[picked[k]]) {
      out.problems.push_back(s.designs[k].name +
                             ": schedule differs when scheduled again");
    }
  }
  return picked.size();
}

/// Post-synthesis sign-off of every final schedule.
struct signoff {
  double verify_s = 0.0;       ///< busy time, summed over stage syntheses
  double verify_wall_s = 0.0;  ///< wall time of the parallel sign-off
  std::uint64_t met = 0;         ///< designs with slack >= 0
  std::uint64_t violations = 0;  ///< designs with slack < 0
  double min_slack_ps = 0.0;
  double worst_delay_ratio = 0.0;  ///< max synthesized delay / clock
};

/// The final schedule of every design that produced one (empty otherwise).
std::vector<isdc::sched::schedule> final_schedules(const pass_result& p) {
  std::vector<isdc::sched::schedule> out(p.runs.size());
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    if (p.runs[i].error.empty()) {
      out[i] = p.runs[i].result.final_schedule;
    }
  }
  return out;
}

signoff sign_off(const workload_def& def, const std::vector<design>& designs,
                 const std::vector<isdc::sched::schedule>& finals,
                 int threads) {
  // synthesized_stage_delay per (design, stage), largest stage first, over
  // `threads` workers; post_synthesis_slack is clock minus their maximum.
  struct stage_job {
    std::size_t design = 0;
    int stage = 0;
    std::size_t nodes = 0;
  };
  std::vector<stage_job> jobs;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const isdc::sched::schedule& s = finals[i];
    for (int stage = 0; !s.cycle.empty() && stage < s.num_stages(); ++stage) {
      jobs.push_back({i, stage, s.nodes_in_stage(stage).size()});
    }
  }
  std::stable_sort(jobs.begin(), jobs.end(), [](const auto& a, const auto& b) {
    return a.nodes > b.nodes;
  });
  std::vector<double> stage_delay(jobs.size());
  std::vector<double> stage_s(jobs.size());
  isdc::thread_pool pool(static_cast<std::size_t>(std::max(threads, 1)));
  const auto start = clock_type::now();
  pool.parallel_for(jobs.size(), [&](std::size_t j) {
    const stage_job& job = jobs[j];
    const auto job_start = clock_type::now();
    stage_delay[j] = isdc::sched::synthesized_stage_delay(
        designs[job.design].graph, finals[job.design], job.stage,
        def.options.synth);
    stage_s[j] = seconds_since(job_start);
  });
  std::vector<double> worst(designs.size(), 0.0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    worst[jobs[j].design] = std::max(worst[jobs[j].design], stage_delay[j]);
  }

  signoff so;
  so.verify_wall_s = seconds_since(start);
  for (const double v : stage_s) {
    so.verify_s += v;
  }
  so.min_slack_ps = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    if (finals[i].cycle.empty()) {
      continue;
    }
    const double clock = designs[i].clock_ps;
    const double slack = clock - worst[i];
    (slack >= 0.0 ? so.met : so.violations) += 1;
    so.min_slack_ps = std::min(so.min_slack_ps, slack);
    so.worst_delay_ratio = std::max(so.worst_delay_ratio, worst[i] / clock);
  }
  if (so.met + so.violations == 0) {
    so.min_slack_ps = 0.0;  // nothing to sign off
  }
  return so;
}

double histogram_sum(const isdc::telemetry::registry::snapshot& snap,
                     const std::string& name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) {
      return h.sum;
    }
  }
  return 0.0;
}

double counter_value(const isdc::telemetry::registry::snapshot& snap,
                     const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) {
      return static_cast<double>(v);
    }
  }
  return 0.0;
}

/// The traced pass on set-up `s` and the probes around it: every per-layer
/// metric, plus the attribution report.
signoff measure_layers(const workload_def& def, setup_state& s,
                       run_result& out) {
  timed_tool tool(s.tool.tool(), /*trace=*/true);
  isdc::telemetry::reset_metrics();
  const pass_result p = run_pass(def, s, tool);
  const isdc::telemetry::registry::snapshot snap =
      isdc::telemetry::registry::global().snap();

  const quality q = assess(s.designs, p);
  out.attempted += q.attempted;
  out.failed += q.failed;
  out.problems.insert(out.problems.end(), q.problems.begin(),
                      q.problems.end());
  const signoff so =
      sign_off(def, s.designs, final_schedules(p), kThreads);

  auto put = [&](const std::string& name, double value,
                 const std::string& unit) {
    out.metrics.push_back({name, value, unit});
    return value;
  };

  double run_s = 0.0;
  std::vector<double> job_s;
  for (const design_run& r : p.runs) {
    run_s += r.seconds;
    job_s.push_back(r.seconds);
  }
  put("engine.run_s", run_s, "s");
  double staged_s = 0.0;
  double evaluate_s = 0.0;
  for (const char* st : kStages) {
    const double v =
        histogram_sum(snap, std::string("engine.stage.") + st + ".wall_us") /
        1e6;
    staged_s += v;
    if (std::string(st) == "evaluate") {
      evaluate_s = v;
    }
    put(std::string("engine.") + st + "_s", v, "s");
  }
  const double unstaged_s = put("engine.unstaged_s", run_s - staged_s, "s");
  put("engine.iterations", counter_value(snap, "engine.iterations"), "count");
  put("engine.async_dispatched", counter_value(snap, "engine.async.dispatched"),
      "count");
  put("engine.async_coalesced", counter_value(snap, "engine.async.coalesced"),
      "count");
  const double hits = put("cache.hits", counter_value(snap, "cache.hit"),
                          "count");
  const double misses = put("cache.misses", counter_value(snap, "cache.miss"),
                            "count");
  const double coalesced =
      put("cache.coalesced", counter_value(snap, "cache.coalesced"), "count");
  const double lookups = hits + misses + coalesced;
  put("cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  put("fleet.job_p50_s", median(job_s), "s");
  put("fleet.job_max_s", *std::max_element(job_s.begin(), job_s.end()), "s");

  const std::vector<call_record> records = tool.records();
  std::vector<double> call_ms;
  double busy_s = 0.0;
  double cone_nodes = 0.0;
  for (const call_record& r : records) {
    busy_s += r.seconds;
    call_ms.push_back(r.seconds * 1e3);
    cone_nodes += static_cast<double>(r.cone_nodes);
  }
  const double calls = static_cast<double>(records.size());
  put("downstream.calls", calls, "count");
  put("downstream.busy_s", busy_s, "s");
  put("downstream.call_p50_ms", quantile(call_ms, 0.5), "ms");
  put("downstream.call_p90_ms", quantile(call_ms, 0.9), "ms");
  put("downstream.cone_nodes_mean", calls > 0 ? cone_nodes / calls : 0.0,
      "count");
  put("downstream.overlap", evaluate_s > 0 ? busy_s / evaluate_s : 0.0,
      "ratio");

  const replay_totals rt = replay_all(tool.cones(), def.flow, kThreads);
  put("lower.lower_s", rt.lower_s, "s");
  put("aig.balance_s", rt.balance_s, "s");
  put("aig.rewrite_s", rt.rewrite_s, "s");
  put("aig.refactor_s", rt.refactor_s, "s");
  put("synth.techmap_s", rt.techmap_s, "s");
  put("synth.sta_s", rt.sta_s, "s");
  put("aig.ands_lowered", static_cast<double>(rt.ands_lowered), "count");
  put("aig.ands_optimized", static_cast<double>(rt.ands_optimized), "count");
  put("synth.replay_cones", static_cast<double>(rt.cones), "count");
  put("synth.replay_mismatches", static_cast<double>(rt.mismatches), "count");
  if (rt.mismatches != 0) {
    out.problems.push_back(std::to_string(rt.mismatches) +
                           " replayed cone delays differ from the tool's");
  }
  put("synth.characterize_s", s.characterize_s, "s");

  sched_totals st;
  for (const design& d : s.designs) {
    isdc::sched::scheduler_options base = def.options.base;
    base.clock_period_ps = d.clock_ps;
    st.add(probe_sched(d.graph, s.delays(), base));
  }
  put("sched.initial_matrix_s", st.initial_matrix_s, "s");
  put("sched.sdc_solve_s", st.sdc_solve_s, "s");
  put("sdc.constraints", static_cast<double>(st.constraints), "count");
  put("sdc.timing_constraints", static_cast<double>(st.timing_constraints),
      "count");
  put("sdc.ssp_paths", static_cast<double>(st.ssp_paths), "count");

  put("trace.schedule_s", p.schedule_s, "s");
  put("trace.overhead_s", tool.tracing_seconds(), "s");
  put("timing_violations", static_cast<double>(so.violations), "count");
  put("min_slack_ps", so.min_slack_ps, "ps");
  put("failed_designs", static_cast<double>(out.failed), "count");

  // Where the traced pass's time went, top down; each line's time falls
  // under the line above it.
  const double replay_s = rt.lower_s + rt.balance_s + rt.rewrite_s +
                          rt.refactor_s + rt.techmap_s + rt.sta_s;
  const auto sec = [](double v) { return isdc::format_double(v, 3) + " s"; };
  std::ostringstream r;
  r << "time attribution, " << def.name << " (traced pass)\n"
    << "  schedule_s " << sec(p.schedule_s)
    << (def.fleet ? "  (fleet::run wall)\n" : "  (sum of engine.run walls)\n")
    << "    engine.run_s " << sec(run_s) << "  (sum over " << p.runs.size()
    << " designs)\n";
  for (const metric& m : out.metrics) {
    if (m.name.ends_with("_s") && m.name.starts_with("engine.") &&
        m.name != "engine.run_s" && m.name != "engine.unstaged_s") {
      r << "      " << m.name << " " << sec(m.value) << "\n";
    }
  }
  r << "      engine.unstaged_s " << sec(unstaged_s) << "  ("
    << isdc::format_double(run_s > 0 ? 100.0 * unstaged_s / run_s : 0.0, 1)
    << "% of engine.run_s, outside every stage span)\n"
    << "    downstream.busy_s " << sec(busy_s) << " over " << records.size()
    << " calls (overlap "
    << isdc::format_double(evaluate_s > 0 ? busy_s / evaluate_s : 0.0, 2)
    << " x engine.evaluate_s)\n"
    << "      replayed lower/aig/synth " << sec(replay_s) << ": lower "
    << sec(rt.lower_s) << ", balance " << sec(rt.balance_s) << ", rewrite "
    << sec(rt.rewrite_s) << ", refactor " << sec(rt.refactor_s)
    << ", techmap " << sec(rt.techmap_s) << ", sta " << sec(rt.sta_s)
    << "; not covered by a pass " << sec(busy_s - replay_s) << "\n"
    << "    trace.overhead_s " << sec(tool.tracing_seconds())
    << "  (decorator recording after each call, summed over calls)\n"
    << "  sched, cold on each naive matrix: initial "
    << sec(st.initial_matrix_s) << ", sdc_schedule " << sec(st.sdc_solve_s)
    << "\n";
  out.report = r.str();
  return so;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const workload_def& d : definitions()) {
      n.push_back(d.name);
    }
    return n;
  }();
  return names;
}

run_result run_workload(const run_config& config) {
  const auto& defs = definitions();
  const auto it = std::find_if(defs.begin(), defs.end(), [&](const auto& d) {
    return d.name == config.workload;
  });
  if (it == defs.end()) {
    throw std::invalid_argument("unknown workload: " + config.workload);
  }
  const workload_def& def = *it;
  run_result out;

  // Untraced runs: passes repeat until `seconds` of set-up plus scheduling
  // are spent; each starts cold (fresh characterizer, engine or fleet,
  // cache). Only the first pass's designs and final schedules are kept,
  // for the sign-off after peak RSS is read, so no pass keeps another's
  // matrices alive. A traced run makes only its traced pass: two
  // table1_synth passes plus the replay do not fit in one run's time.
  std::vector<double> setup_samples;
  std::vector<double> characterize_samples;
  std::vector<double> schedule_samples;
  std::vector<double> call_samples;
  std::optional<quality> first;
  std::vector<double> first_seconds;  ///< per design, pass 1
  std::vector<design> first_designs;
  std::vector<isdc::sched::schedule> first_finals;
  double measured_s = 0.0;
  while (!config.trace &&
         (schedule_samples.empty() || measured_s < config.seconds)) {
    setup_state s = set_up(def, config.seed);
    const timed_tool tool(s.tool.tool(), /*trace=*/false);
    const pass_result p = run_pass(def, s, tool);
    measured_s += s.setup_s + p.schedule_s;
    setup_samples.push_back(s.setup_s);
    characterize_samples.push_back(s.characterize_s);
    schedule_samples.push_back(p.schedule_s);
    call_samples.push_back(static_cast<double>(tool.calls()));

    quality q = assess(s.designs, p);
    out.attempted += q.attempted;
    out.failed += q.failed;
    out.problems.insert(out.problems.end(), q.problems.begin(),
                        q.problems.end());
    if (!first) {
      first = std::move(q);
      for (const design_run& r : p.runs) {
        first_seconds.push_back(r.seconds);
      }
      first_finals = final_schedules(p);
      first_designs = std::move(s.designs);
    } else if (!def.options.async_evaluation &&
               (q.final_bits != first->final_bits ||
                q.final_stages != first->final_stages ||
                call_samples.back() != call_samples.front())) {
      out.problems.push_back("pass " + std::to_string(schedule_samples.size()) +
                             ": schedules or downstream calls differ from "
                             "pass 1");
    }
  }
  double setup_total_s = 0.0;
  for (const double v : setup_samples) {
    setup_total_s += v;
  }
  // setup_s is an end-to-end metric only; a traced run skips the repeats.
  while (!config.trace &&
         (setup_samples.size() < kMinSetups ||
          (setup_total_s < kMinSetupSeconds &&
           setup_samples.size() < kMaxSetups))) {
    const setup_state s = set_up(def, config.seed);
    setup_samples.push_back(s.setup_s);
    characterize_samples.push_back(s.characterize_s);
    setup_total_s += s.setup_s;
  }

  const double peak_rss_mb =
      static_cast<double>(isdc::peak_rss_kb()) / 1024.0;
  std::size_t rechecked = 0;
  if (!config.trace && !def.options.async_evaluation &&
      schedule_samples.size() == 1 && first->failed == 0) {
    rechecked = recheck(def, config.seed, first_seconds, *first, out);
  }
  signoff so;
  if (config.trace) {
    setup_state s = set_up(def, config.seed);
    setup_samples.push_back(s.setup_s);
    characterize_samples.push_back(s.characterize_s);
    so = measure_layers(def, s, out);
  } else {
    std::vector<double> verify_samples;
    double verify_wall_s = 0.0;
    while (verify_samples.empty() || (verify_wall_s < kMinVerifySeconds &&
                                      verify_samples.size() < kMaxVerifies)) {
      so = sign_off(def, first_designs, first_finals, kThreads);
      verify_samples.push_back(so.verify_s);
      verify_wall_s += so.verify_wall_s;
    }
    so.verify_s = median(verify_samples);
    out.metrics = {
        {"schedule_s", median(schedule_samples), "s"},
        {"setup_s", median(setup_samples), "s"},
        {"verify_s", so.verify_s, "s"},
        {"register_ratio", first->register_ratio, "ratio"},
        {"stage_ratio", first->stage_ratio, "ratio"},
        {"worst_delay_ratio", so.worst_delay_ratio, "ratio"},
        {"downstream_calls", median(call_samples), "count"},
        {"peak_rss_mb", peak_rss_mb, "MB"}};
  }
  out.correct = out.problems.empty();

  out.details = {
      {"nproc", static_cast<double>(std::thread::hardware_concurrency()),
       "count"},
      {"seed", static_cast<double>(config.seed), "count"},
      {"passes", static_cast<double>(schedule_samples.size()), "count"},
      {"rechecked_designs", static_cast<double>(rechecked), "count"},
      {"setups", static_cast<double>(setup_samples.size()), "count"},
      {"schedule_s.p25", quantile(schedule_samples, 0.25), "s"},
      {"schedule_s.p75", quantile(schedule_samples, 0.75), "s"},
      {"schedule_s.max", quantile(schedule_samples, 1.0), "s"},
      {"setup_s.max", quantile(setup_samples, 1.0), "s"},
      {"characterize_s", median(characterize_samples), "s"},
      {"verify_wall_s", so.verify_wall_s, "s"},
      {"timing_violations", static_cast<double>(so.violations), "count"},
      {"min_slack_ps", so.min_slack_ps, "ps"},
      {"failed_designs", static_cast<double>(out.failed), "count"}};
  return out;
}

}  // namespace perfbench
