// Shared plumbing of the four benchmark workloads.
//
// Every workload follows the same shape: set up (including a warm-up that
// fills the library's lazy caches), run timed operations until the run's
// time is spent, check every output, and report. With tracing on, the run
// is split in two halves — untraced, then traced — so the tracing overhead
// comes from the same process and the per-layer numbers from the second
// half.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< set up, report setup_s, exit
  std::string out_dir = ".";  ///< where span files and scratch state go
};

/// Output checks. Every check is one attempted op; a mismatch is a failed
/// op and keeps its message (the first few are reported).
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& messages() const noexcept { return messages_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Named metrics with units; `note` carries sample counts and the like.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Adds `<name>` with the percentile's value; the note states its sample
  /// count and how many samples lie beyond it.
  void add_percentile(const std::string& name, const Percentile& p, const std::string& unit);
  preempt::JsonValue to_json() const;

 private:
  preempt::JsonObject entries_;
};

struct WorkloadReport {
  double setup_s = 0.0;
  MetricSet e2e;    ///< end-to-end metrics (tracing off)
  MetricSet layer;  ///< per-layer metrics (traced half of a traced run)
  Checks checks;
};

/// Seconds on the steady clock since `start`.
double seconds_since(SteadyClock::time_point start);
/// Process CPU seconds (all threads).
double process_cpu_seconds();
/// Deterministic 64-bit mix of the workload seed and a salt.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Layer split of a traced window, added as trace.self_ms.<layer>,
/// trace.other_ms and trace.wall_ms, each divided by `ops`.
void add_layer_split(MetricSet& layer, const LayerSplit& split, double ops);

WorkloadReport run_paper_sweep(const RunConfig& config);
WorkloadReport run_fleet_10x(const RunConfig& config);
WorkloadReport run_daemon_mixed(const RunConfig& config);
WorkloadReport run_shard_sweep(const RunConfig& config);

}  // namespace perfbench
