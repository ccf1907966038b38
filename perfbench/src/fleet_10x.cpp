// fleet-10x: the ROADMAP's fixed fleet case. One caller runs one
// fleet-burst-cycle replication at 10x scale — 10,000 machines, ~1.14M tasks
// over 24 h — through scenario::run + to_json().dump(), op after op.
//
// Checks: every task completes, and every op renders the same report bytes.
// Traced half: the replication goes through fleet::simulate_fleet directly
// with a counting decorator around the preemption law, and must render
// byte-identically to the untraced op.
#include <algorithm>
#include <stdexcept>

#include "checks.hpp"
#include "counting_law.hpp"
#include "fleet/simulation.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace preempt;

/// fleet-burst-cycle, one replication, machine counts and arrival rates
/// multiplied by `scale`.
scenario::ScenarioSpec burst_cycle(double scale, std::uint64_t seed) {
  const scenario::NamedScenario* named = scenario::find_builtin("fleet-burst-cycle");
  if (named == nullptr) throw std::runtime_error("missing scenario fleet-burst-cycle");
  scenario::ScenarioSpec spec = named->sweep.base;
  for (fleet::MachineClass& mc : spec.fleet.machines) {
    mc.count = static_cast<std::size_t>(static_cast<double>(mc.count) * scale);
  }
  for (fleet::TaskClass& tc : spec.fleet.tasks) tc.interarrival_hours /= scale;
  spec.replications = 1;
  spec.seed = seed;
  return spec;
}

double ms_between(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) / 1e6; }

}  // namespace

WorkloadReport run_fleet_10x(const RunConfig& config) {
  WorkloadReport report;
  const auto setup_start = SteadyClock::now();
  const std::uint64_t seed = derive_seed(config.seed, 10);
  const scenario::ScenarioSpec spec = burst_cycle(10.0, seed);
  const scenario::ScenarioSpec spec_1x = burst_cycle(1.0, seed);
  scenario::validate(spec);
  // Warm-up at registered scale: resolves the regime law and its quantile
  // table and touches every placement/event path once.
  const scenario::ScenarioResult warm = scenario::run(spec_1x);
  report.setup_s = seconds_since(setup_start);
  if (config.setup_only) return report;

  std::string why;
  report.checks.expect(fleet_report_complete(warm.fleet_report, &why), "1x warm-up: " + why);

  std::string first;
  double tasks = 0.0;
  const auto check_op = [&](const fleet::FleetReport& r, const std::string& dump,
                            const char* what) {
    std::string why_op;
    report.checks.expect(fleet_report_complete(r, &why_op), std::string(what) + ": " + why_op);
    if (first.empty()) {
      first = dump;
      tasks = static_cast<double>(r.tasks_submitted);
      return;
    }
    report.checks.expect(same_bytes(first, dump, &why_op),
                         std::string(what) + " report differs from the first op: " + why_op);
  };

  const double untraced_budget = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<double> op_s;
  auto start = SteadyClock::now();
  while (op_s.empty() || seconds_since(start) < untraced_budget) {
    const auto t0 = SteadyClock::now();
    const scenario::ScenarioResult result = scenario::run(spec);
    const std::string dump = result.to_json().dump();
    op_s.push_back(seconds_since(t0));
    check_op(result.fleet_report, dump, "op");
  }
  const double op_median = median(op_s);
  report.e2e.add("items_per_s", tasks / op_median, "1/s",
                 "simulated tasks/s from the median of " + std::to_string(op_s.size()) +
                     " replications");
  report.e2e.add("tasks_per_s", tasks / op_median, "1/s");
  report.e2e.add("op_iqr_share", iqr_share(op_s), "ratio", "spread of the ops within this run");

  if (config.trace) {
    Tracer& tracer = Tracer::instance();
    const DrawCounts draws0 = draw_counts();
    double law_ms = 0, validate_ms = 0, simulate_ms = 0, render_ms = 0;
    double machine_preemptions = 0, task_preemptions = 0, migrations = 0;
    std::vector<double> traced_s;
    tracer.set_enabled(true);
    const std::int64_t w0 = now_ns();
    start = SteadyClock::now();
    while (traced_s.empty() || seconds_since(start) < config.seconds / 2) {
      const auto t0 = SteadyClock::now();
      const SpanScope op("harness.op", "harness");
      std::int64_t a = now_ns();
      dist::DistributionPtr law;
      {
        const SpanScope span("dist.law_build", "dist");
        law = counted(scenario::make_ground_truth(spec));
      }
      std::int64_t b = now_ns();
      law_ms += ms_between(a, b);
      {
        const SpanScope span("fleet.validate", "fleet");
        fleet::validate(spec.fleet);
      }
      a = now_ns();
      validate_ms += ms_between(b, a);
      scenario::ScenarioResult result;
      result.kind = scenario::ScenarioKind::kFleet;
      {
        const SpanScope span("fleet.simulate_fleet", "fleet");
        result.fleet_report = fleet::simulate_fleet(spec.fleet, spec.seed, law.get());
      }
      b = now_ns();
      simulate_ms += ms_between(a, b);
      std::string dump;
      {
        const SpanScope span("scenario.render", "scenario");
        dump = result.to_json().dump();
      }
      render_ms += ms_between(b, now_ns());
      traced_s.push_back(seconds_since(t0));
      machine_preemptions += static_cast<double>(result.fleet_report.machine_preemptions);
      task_preemptions += static_cast<double>(result.fleet_report.task_preemptions);
      migrations += static_cast<double>(result.fleet_report.migrations);
      check_op(result.fleet_report, dump, "traced op");
    }
    const std::int64_t w1 = now_ns();
    tracer.set_enabled(false);
    const DrawCounts d = draw_counts() - draws0;
    const double n = static_cast<double>(traced_s.size());

    // Size baseline: the same law and policy at registered scale.
    std::vector<double> ns_1x;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = SteadyClock::now();
      const fleet::FleetReport r =
          fleet::simulate_fleet(spec_1x.fleet, spec_1x.seed, scenario::make_ground_truth(spec_1x).get());
      ns_1x.push_back(seconds_since(t0) * 1e9 / static_cast<double>(r.tasks_submitted));
    }

    MetricSet& l = report.layer;
    l.add("dist.law_build_ms", law_ms / n, "ms", "per replication");
    l.add("dist.draws", static_cast<double>(d.draws) / n, "count", "per replication");
    l.add("dist.draws_per_call",
          static_cast<double>(d.draws) /
              std::max<double>(1.0, static_cast<double>(d.sample_calls + d.sample_many_calls)),
          "count");
    l.add("dist.sample_ms", static_cast<double>(d.sample_many_ns) / 1e6 / n, "ms",
          "per replication, inside sample_many");
    l.add("scenario.render_ms", render_ms / n, "ms", "per replication");
    l.add("fleet.simulate_ms", simulate_ms / n, "ms", "per replication");
    l.add("fleet.ns_per_task", simulate_ms * 1e6 / n / tasks, "ns");
    l.add("fleet.ns_per_task_1x", median(ns_1x), "ns", "median of 5 registered-scale runs");
    l.add("fleet.validate_ms", validate_ms / n, "ms", "per replication");
    l.add("fleet.tasks", tasks, "count", "per replication");
    l.add("fleet.machine_preemptions", machine_preemptions / n, "count", "per replication");
    l.add("fleet.task_preemptions", task_preemptions / n, "count", "per replication");
    l.add("fleet.migrations", migrations / n, "count", "per replication");
    l.add("trace.overhead_share", median(traced_s) / op_median - 1.0, "ratio",
          "traced vs untraced median replication");
    add_layer_split(l, layer_split(tracer.spans(), {tracer.thread_number()}, w0, w1), n);
  }
  return report;
}

}  // namespace perfbench
