// shard-sweep: the coordinator thread scatters a seed axis over
// paper-fig06-job-length cells (~1.5 ms each, 108 cells) to 3 in-process
// worker daemons with bag_workers=1, sweep after sweep. With cells this
// small, dispatch, polling and the merge dominate; the workers are reached
// over loopback by a few long-lived client connections that poll.
//
// Checks: every sweep completes, and its merged report is byte-identical to
// the single-node scenario::run_sweep of the same sweep.
//
// Traced half: the coordinator's observer hook timestamps dispatch, shard
// completion and the merge; the workers' handler decorators count polls.
#include <algorithm>
#include <stdexcept>

#include "checks.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "served_daemon.hpp"
#include "shard/coordinator.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace preempt;

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kSeeds = 12;

scenario::SweepSpec seed_sweep(std::uint64_t seed) {
  const scenario::NamedScenario* named = scenario::find_builtin("paper-fig06-job-length");
  if (named == nullptr) throw std::runtime_error("missing scenario paper-fig06-job-length");
  scenario::SweepSpec sweep = named->sweep;
  scenario::SweepAxis seeds;
  seeds.field = "seed";
  for (std::size_t s = 0; s < kSeeds; ++s) seeds.values.emplace_back(derive_seed(seed, 60 + s));
  sweep.axes.push_back(std::move(seeds));
  return sweep;
}

/// Observer timestamps of one sweep.
struct SweepEvents {
  std::int64_t start = 0;
  std::int64_t all_dispatched = 0;
  std::int64_t last_done = 0;
  std::int64_t end = 0;
  std::map<std::size_t, std::int64_t> dispatched;
  std::vector<double> shard_ms;  ///< dispatched -> done, per shard
};

}  // namespace

WorkloadReport run_shard_sweep(const RunConfig& config) {
  WorkloadReport report;
  const auto setup_start = SteadyClock::now();
  const scenario::SweepSpec sweep = seed_sweep(config.seed);
  std::vector<std::unique_ptr<ServedDaemon>> workers;
  api::ServiceDaemon::Options options;
  options.bag_workers = 1;
  // A worker only needs a shard's job until the coordinator has polled it;
  // a small retention cap keeps worker memory flat over hundreds of sweeps,
  // so peak RSS does not grow with how many sweeps a run manages.
  options.max_finished_jobs = 16;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    workers.push_back(std::make_unique<ServedDaemon>(options));
  }
  SweepEvents events;
  shard::CoordinatorOptions copts;
  for (const auto& w : workers) copts.workers.push_back(w->port());
  copts.observer = [&events](const shard::ShardEventInfo& info) {
    const std::int64_t t = now_ns();
    switch (info.event) {
      case shard::ShardEvent::kDispatched:
        events.dispatched[info.shard] = t;
        break;
      case shard::ShardEvent::kAllDispatched:
        events.all_dispatched = t;
        break;
      case shard::ShardEvent::kShardDone:
        events.last_done = t;
        if (events.dispatched.count(info.shard) != 0) {
          events.shard_ms.push_back(static_cast<double>(t - events.dispatched[info.shard]) / 1e6);
        }
        break;
      default:
        break;
    }
  };
  shard::ShardCoordinator coordinator(copts);

  std::size_t retries = 0, redispatches = 0, hedges = 0;
  double expand_ms = 0, render_ms = 0;
  const auto one_sweep = [&](std::string& dump) {
    events = SweepEvents{};
    const SpanScope span("shard.sweep", "shard");
    events.start = now_ns();
    std::vector<scenario::ScenarioSpec> cells;
    {
      const SpanScope expand("scenario.expand", "scenario");
      cells = scenario::expand(sweep);
    }
    const std::int64_t run_start = now_ns();
    expand_ms += static_cast<double>(run_start - events.start) / 1e6;
    const shard::ShardOutcome outcome = coordinator.run_cells(std::move(cells));
    events.end = now_ns();
    {
      const SpanScope render("scenario.render", "scenario");
      dump = outcome.report.dump();
    }
    render_ms += static_cast<double>(now_ns() - events.end) / 1e6;
    record_span("shard.dispatch", "shard", run_start, events.all_dispatched, span.id());
    record_span("shard.wait", "shard", events.all_dispatched, events.last_done, span.id());
    record_span("shard.merge", "shard", events.last_done, events.end, span.id());
    for (const shard::WorkerRunStats& w : outcome.workers) retries += w.retried;
    redispatches += outcome.redispatches;
    hedges += outcome.hedges;
    return outcome.complete;
  };

  // Warm-up sweep: fills the workers' lazy caches and the job queues.
  std::string first;
  report.checks.expect(one_sweep(first), "warm-up sweep incomplete");
  report.setup_s = seconds_since(setup_start);
  if (config.setup_only) return report;

  const double cells = static_cast<double>(sweep.cardinality());
  const auto timed_sweeps = [&](double budget_s, std::vector<SweepEvents>* log) {
    std::vector<double> sweep_s;
    const auto start = SteadyClock::now();
    while (sweep_s.empty() || seconds_since(start) < budget_s) {
      const auto t0 = SteadyClock::now();
      std::string dump;
      const bool complete = one_sweep(dump);
      sweep_s.push_back(seconds_since(t0));
      if (log != nullptr) log->push_back(events);
      std::string why = "incomplete";
      report.checks.expect(complete && same_bytes(first, dump, &why),
                           "sweep " + std::to_string(sweep_s.size()) + ": " + why);
    }
    return sweep_s;
  };

  const double untraced_budget = config.trace ? config.seconds / 2 : config.seconds;
  const std::vector<double> sweeps = timed_sweeps(untraced_budget, nullptr);
  const double sweep_median = median(sweeps);
  report.e2e.add("items_per_s", cells / sweep_median, "1/s",
                 "cells/s from the median of " + std::to_string(sweeps.size()) + " sweeps");
  report.e2e.add("cells_per_s", cells / sweep_median, "1/s");
  report.e2e.add("op_iqr_share", iqr_share(sweeps), "ratio", "spread of the ops within this run");

  // The single-node sweep: the reference bytes and the local baseline.
  std::vector<double> local_s;
  std::string local;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = SteadyClock::now();
    local = scenario::to_json(scenario::run_sweep(sweep)).dump();
    local_s.push_back(seconds_since(t0));
  }
  std::string why;
  report.checks.expect(same_bytes(local, first, &why),
                       "merged report differs from local run_sweep: " + why);

  if (config.trace) {
    Tracer& tracer = Tracer::instance();
    for (const auto& w : workers) w->clear_samples();
    retries = redispatches = hedges = 0;
    expand_ms = render_ms = 0;
    std::vector<SweepEvents> log;
    tracer.set_enabled(true);
    const std::int64_t w0 = now_ns();
    const std::vector<double> traced = timed_sweeps(config.seconds / 2, &log);
    const std::int64_t w1 = now_ns();
    tracer.set_enabled(false);
    const double n = static_cast<double>(traced.size());

    std::vector<double> dispatch_ms, shard_ms, merge_ms;
    for (const SweepEvents& e : log) {
      dispatch_ms.push_back(static_cast<double>(e.all_dispatched - e.start) / 1e6);
      merge_ms.push_back(static_cast<double>(e.end - e.last_done) / 1e6);
      shard_ms.insert(shard_ms.end(), e.shard_ms.begin(), e.shard_ms.end());
    }
    std::map<std::string, std::vector<double>> handlers;
    for (const auto& w : workers) {
      for (const auto& [route, samples] : w->handler_us()) {
        auto& dst = handlers[route];
        dst.insert(dst.end(), samples.begin(), samples.end());
      }
    }
    const double polls = static_cast<double>(handlers["bag_get"].size());
    const double shards_done = static_cast<double>(shard_ms.size());

    MetricSet& l = report.layer;
    l.add("shard.dispatch_ms", median(dispatch_ms), "ms", "median, sweep start -> all dispatched");
    l.add_percentile("shard.shard_ms", percentile(shard_ms, 50), "ms");
    l.add("shard.merge_ms", median(merge_ms), "ms", "median, last shard done -> merged");
    l.add("shard.polls_per_shard", polls / std::max(1.0, shards_done), "count",
          "poll attempts per completed shard (one poll per shard is useful)");
    l.add("shard.retries", static_cast<double>(retries) / n, "count", "per sweep");
    l.add("shard.redispatches", static_cast<double>(redispatches) / n, "count", "per sweep");
    l.add("shard.hedges", static_cast<double>(hedges) / n, "count", "per sweep");
    l.add("scenario.expand_ms", expand_ms / n, "ms", "per sweep, coordinator side");
    l.add("scenario.render_ms", render_ms / n, "ms", "per sweep, merged report");
    l.add("shard.local_cells_per_s", cells / median(local_s), "1/s",
          "single-node run_sweep, median of 3");
    l.add_percentile("api.handle_us.bag_get.p50", percentile(handlers["bag_get"], 50), "us");
    l.add_percentile("api.handle_us.bag_get.p99", percentile(handlers["bag_get"], 99), "us");
    l.add_percentile("api.handle_us.scenarios_run.p50",
                     percentile(handlers["scenarios_run"], 50), "us");
    l.add("trace.overhead_share", median(traced) / sweep_median - 1.0, "ratio",
          "traced vs untraced median sweep");
    add_layer_split(l, layer_split(tracer.spans(), {tracer.thread_number()}, w0, w1), n);
  }
  return report;
}

}  // namespace perfbench
