// paper-sweep: the researcher's path. One caller runs the paper's registered
// cells — the three Sec. 6 bags, Figs. 4-9, grid-cluster-policy and
// portfolio-baseline, 46 cells — through scenario::run + to_json().dump(),
// pass after pass, with the mc engine on its default global pool. Figs. 4/5
// run at 100k replications so the checkpoint Monte Carlo carries real
// weight next to the Fig. 8 DP and the service bags.
//
// Checks: every pass renders every cell byte-identically to the first pass,
// and the first pass matches scenario::run_sweep of the same sweeps.
//
// Traced half: each cell is executed by calling the same public functions
// scenario::run calls (law resolution, CheckpointDp, simulate_plan,
// run_service), with counting decorators around the lifetime laws; the
// rendered cells must stay byte-identical to the untraced ones.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "checks.hpp"
#include "counting_law.hpp"
#include "policy/checkpoint.hpp"
#include "policy/checkpoint_sim.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace preempt;

const char* const kSweeps[] = {
    "paper-nanoconfinement",    "paper-shapes",           "paper-lulesh",
    "paper-fig04-running-time", "paper-fig05-start-time", "paper-fig06-job-length",
    "paper-fig07-sensitivity",  "paper-fig08-checkpointing", "paper-fig09a-cost",
    "paper-fig09b-preemptions", "grid-cluster-policy",    "portfolio-baseline",
};

std::vector<scenario::SweepSpec> paper_sweeps(std::uint64_t seed) {
  std::vector<scenario::SweepSpec> out;
  std::uint64_t salt = 0;
  for (const char* name : kSweeps) {
    const scenario::NamedScenario* named = scenario::find_builtin(name);
    if (named == nullptr) throw std::runtime_error(std::string("missing scenario ") + name);
    scenario::SweepSpec sweep = named->sweep;
    const std::string n = name;
    if (n == "paper-fig04-running-time" || n == "paper-fig05-start-time") {
      scenario::apply_override(sweep, "replications", JsonValue(std::size_t{100000}));
    }
    scenario::apply_override(sweep, "seed", JsonValue(derive_seed(seed, ++salt)));
    out.push_back(std::move(sweep));
  }
  return out;
}

/// Per-layer tallies of the traced half.
struct PaperTally {
  double law_build_ms = 0, dp_ms = 0, checkpoint_ms = 0, service_ms = 0, portfolio_ms = 0;
  double expand_ms = 0, render_ms = 0;
  double mc_replications = 0, mc_cpu_s = 0, mc_wall_s = 0;
  double vms_launched = 0, preemptions = 0;
};

double ms_since(std::int64_t start_ns) { return static_cast<double>(now_ns() - start_ns) / 1e6; }

/// scenario::run, rebuilt from the public functions it calls so each layer
/// can be timed and each law decorated.
scenario::ScenarioResult traced_run(const scenario::ScenarioSpec& spec, PaperTally& t) {
  scenario::validate(spec);
  scenario::ScenarioResult result;
  switch (spec.kind) {
    case scenario::ScenarioKind::kService: {
      std::int64_t t0 = now_ns();
      dist::DistributionPtr truth;
      dist::DistributionPtr decision;
      {
        const SpanScope span("dist.law_build", "dist");
        truth = counted(scenario::make_ground_truth(spec));
        decision = counted(scenario::make_decision_model(spec, *truth));
      }
      t.law_build_ms += ms_since(t0);
      t0 = now_ns();
      {
        const SpanScope span("sim.run_service", "sim");
        result = scenario::run_service(spec, *truth, *decision);
      }
      t.service_ms += ms_since(t0);
      if (spec.replications > 1) t.mc_replications += static_cast<double>(spec.replications);
      t.vms_launched += result.report.vms_launched;
      t.preemptions += result.report.preemptions;
      return result;
    }
    case scenario::ScenarioKind::kCheckpoint: {
      std::int64_t t0 = now_ns();
      dist::DistributionPtr truth;
      {
        const SpanScope span("dist.law_build", "dist");
        truth = counted(scenario::make_ground_truth(spec));
      }
      t.law_build_ms += ms_since(t0);
      const policy::CheckpointConfig cfg = scenario::checkpoint_config(spec);
      policy::CheckpointPlan plan;
      t0 = now_ns();
      {
        const SpanScope span("policy.plan", "policy");
        if (spec.scheduler == "dp") {
          const policy::CheckpointDp dp(*truth, spec.job_hours, cfg);
          plan.checkpoint_cost_hours = cfg.checkpoint_cost_hours;
          plan.work_segments_hours = dp.schedule_partial(spec.job_hours, spec.start_age_hours);
        } else if (spec.scheduler == "young-daly") {
          plan = policy::young_daly_plan(spec.job_hours, spec.mttf_hours,
                                         cfg.checkpoint_cost_hours);
        } else {
          plan = policy::no_checkpoint_plan(spec.job_hours, cfg.checkpoint_cost_hours);
        }
      }
      t.dp_ms += ms_since(t0);
      policy::SimulationOptions options;
      options.runs = spec.replications;
      options.seed = spec.seed;
      options.start_age_hours = spec.start_age_hours;
      options.restart_overhead_hours = cfg.restart_overhead_hours;
      t0 = now_ns();
      const double cpu0 = process_cpu_seconds();
      {
        const SpanScope span("mc.simulate_plan", "mc");
        result.kind = scenario::ScenarioKind::kCheckpoint;
        result.makespan = policy::simulate_plan(*truth, plan, options);
      }
      const double wall_ms = ms_since(t0);
      t.checkpoint_ms += wall_ms;
      t.mc_replications += static_cast<double>(spec.replications);
      if (spec.replications >= 256) {
        t.mc_cpu_s += process_cpu_seconds() - cpu0;
        t.mc_wall_s += wall_ms / 1e3;
      }
      return result;
    }
    case scenario::ScenarioKind::kPortfolio: {
      // The market catalog builds its own laws; no injection point.
      const std::int64_t t0 = now_ns();
      {
        const SpanScope span("portfolio.run", "portfolio");
        result = scenario::run(spec);
      }
      t.portfolio_ms += ms_since(t0);
      if (spec.replications > 1) t.mc_replications += static_cast<double>(spec.replications);
      return result;
    }
    case scenario::ScenarioKind::kFleet:
      break;
  }
  throw std::runtime_error("paper-sweep has no fleet cells");
}

/// One pass over every cell; returns the rendered cells in order.
std::vector<std::string> run_pass(const std::vector<scenario::SweepSpec>& sweeps, bool traced,
                                  PaperTally& tally) {
  std::vector<std::string> rendered;
  for (const scenario::SweepSpec& sweep : sweeps) {
    std::vector<scenario::ScenarioSpec> cells;
    std::int64_t t0 = now_ns();
    {
      const SpanScope span("scenario.expand", "scenario");
      cells = scenario::expand(sweep);
    }
    tally.expand_ms += ms_since(t0);
    for (const scenario::ScenarioSpec& cell : cells) {
      if (!traced) {
        rendered.push_back(scenario::run(cell).to_json().dump());
        continue;
      }
      const SpanScope span("scenario.cell", "scenario");
      const scenario::ScenarioResult result = traced_run(cell, tally);
      t0 = now_ns();
      {
        const SpanScope render("scenario.render", "scenario");
        rendered.push_back(result.to_json().dump());
      }
      tally.render_ms += ms_since(t0);
    }
  }
  return rendered;
}

}  // namespace

WorkloadReport run_paper_sweep(const RunConfig& config) {
  WorkloadReport report;
  const auto setup_start = SteadyClock::now();
  const std::vector<scenario::SweepSpec> sweeps = paper_sweeps(config.seed);
  PaperTally scratch;
  // Warm-up pass: fills the quantile tables, regime fits and the global
  // pool; its output is the reference every later pass must reproduce.
  const std::vector<std::string> first = run_pass(sweeps, false, scratch);
  report.setup_s = seconds_since(setup_start);
  if (config.setup_only) return report;

  const auto check_pass = [&](const std::vector<std::string>& pass, const char* what) {
    bool ok = pass.size() == first.size();
    std::string why = "cell count " + std::to_string(pass.size());
    for (std::size_t i = 0; ok && i < pass.size(); ++i) {
      ok = same_bytes(first[i], pass[i], &why);
      if (!ok) why = "cell " + std::to_string(i) + ": " + why;
    }
    report.checks.expect(ok, std::string(what) + " differs from the first pass: " + why);
  };

  const double cells = static_cast<double>(first.size());
  const auto timed_passes = [&](double budget_s, bool traced, PaperTally& tally) {
    std::vector<double> pass_s;
    const auto start = SteadyClock::now();
    while (pass_s.empty() || seconds_since(start) < budget_s) {
      const auto t0 = SteadyClock::now();
      std::vector<std::string> pass;
      {
        const SpanScope span("harness.pass", "harness");
        pass = run_pass(sweeps, traced, tally);
      }
      pass_s.push_back(seconds_since(t0));
      check_pass(pass, traced ? "traced pass" : "pass");
    }
    return pass_s;
  };

  const double untraced_budget = config.trace ? config.seconds / 2 : config.seconds;
  const std::vector<double> passes = timed_passes(untraced_budget, false, scratch);
  const double pass_median = median(passes);
  report.e2e.add("items_per_s", cells / pass_median, "1/s",
                 "cells/s from the median of " + std::to_string(passes.size()) + " passes");
  report.e2e.add("cells_per_s", cells / pass_median, "1/s");
  report.e2e.add("op_iqr_share", iqr_share(passes), "ratio", "spread of the ops within this run");

  if (config.trace) {
    Tracer& tracer = Tracer::instance();
    PaperTally t;
    const DrawCounts draws0 = draw_counts();
    tracer.set_enabled(true);
    const std::int64_t w0 = now_ns();
    const std::vector<double> traced = timed_passes(config.seconds / 2, true, t);
    const std::int64_t w1 = now_ns();
    tracer.set_enabled(false);
    const DrawCounts d = draw_counts() - draws0;
    const double n = static_cast<double>(traced.size());
    MetricSet& l = report.layer;
    l.add("dist.law_build_ms", t.law_build_ms / n, "ms", "per pass");
    l.add("dist.draws", static_cast<double>(d.draws) / n, "count", "per pass");
    l.add("dist.draws_per_call",
          static_cast<double>(d.draws) /
              std::max<double>(1.0, static_cast<double>(d.sample_calls + d.sample_many_calls)),
          "count");
    l.add("dist.sample_ms", static_cast<double>(d.sample_many_ns) / 1e6 / n, "ms",
          "per pass, inside sample_many");
    l.add("mc.checkpoint_ms", t.checkpoint_ms / n, "ms", "per pass, simulate_plan");
    l.add("mc.replications", t.mc_replications / n, "count", "per pass");
    l.add("mc.parallelism", t.mc_wall_s > 0 ? t.mc_cpu_s / t.mc_wall_s : 0.0, "ratio",
          "process CPU-s / wall-s in calls with >= 256 replications");
    l.add("policy.dp_ms", t.dp_ms / n, "ms", "per pass, plan construction");
    l.add("sim.service_ms", t.service_ms / n, "ms", "per pass, run_service");
    l.add("sim.vms_launched", t.vms_launched / n, "count", "per pass, replication 0");
    l.add("sim.preemptions", t.preemptions / n, "count", "per pass, replication 0");
    l.add("portfolio.cell_ms", t.portfolio_ms / n, "ms", "per pass");
    l.add("scenario.expand_ms", t.expand_ms / n, "ms", "per pass");
    l.add("scenario.render_ms", t.render_ms / n, "ms", "per pass");
    l.add("trace.overhead_share", median(traced) / pass_median - 1.0, "ratio",
          "traced vs untraced median pass");
    add_layer_split(l, layer_split(tracer.spans(), {tracer.thread_number()}, w0, w1), n);
  }

  // Reference: the single-node sweep path must render the same cells.
  std::vector<std::string> reference;
  for (const scenario::SweepSpec& sweep : sweeps) {
    const JsonValue swept = scenario::to_json(scenario::run_sweep(sweep));
    for (const JsonValue& cell : swept.find("cells")->as_array()) {
      reference.push_back(cell.find("result")->dump());
    }
  }
  check_pass(reference, "run_sweep reference");
  return report;
}

}  // namespace perfbench
