// In-memory span recorder for the traced run.
//
// The benchmark records spans from its own code only: around the calls it
// makes into each layer's public functions and inside the decorators it
// passes through the library's injection points (lifetime laws, the HTTP
// handler, the shard observer). Spans are appended to per-thread buffers,
// kept in memory, and written out once at exit.
//
// A span's self time is its duration minus the part of its interval that its
// children cover. Self times summed per layer, plus an `other` remainder,
// account for the wall time of the workload's caller timelines.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the common time base of every span).
std::int64_t now_ns();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< request id shared by the spans of one op (0 = none)
  const char* name = "";      ///< static string, e.g. "policy.dp"
  const char* layer = "";     ///< src/ module, e.g. "policy"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;   ///< tracer-assigned thread number
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t next_id();
  /// Thread number of the calling thread (assigned on first use).
  std::uint32_t thread_number();

  void record(const Span& span);
  /// Every recorded span, all threads, in no particular order.
  std::vector<Span> spans() const;
  void clear();

  /// Write the spans as JSON lines {"id","parent","request","name","layer",
  /// "start_ns","end_ns","thread"} to `path`.
  void write_jsonl(const std::string& path) const;

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};  // read on every instrumented call, any thread
};

/// RAII span on the calling thread; nests under the innermost open scope
/// unless an explicit parent is given. Does nothing when tracing is off.
class SpanScope {
 public:
  SpanScope(const char* name, const char* layer, std::uint64_t request = 0,
            std::uint64_t explicit_parent = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const noexcept { return span_.id; }

 private:
  Span span_;
  bool active_ = false;
  std::uint64_t saved_parent_ = 0;
};

/// Record an already-timed interval (e.g. rebuilt from observer events).
std::uint64_t record_span(const char* name, const char* layer, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint64_t parent, std::uint64_t request = 0);

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span). Keyed by span id.
std::map<std::uint64_t, std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-layer accounting of the timelines `threads` over [window_start,
/// window_end]: the self time of every span reachable from a root on those
/// threads, summed by layer, and `other` = timelines x window minus the
/// union of the root spans.
struct LayerSplit {
  std::map<std::string, double> self_ms;  ///< by layer
  double other_ms = 0.0;
  double wall_ms = 0.0;       ///< timelines x window
  double accounted_ms = 0.0;  ///< sum of self_ms + other_ms
};
LayerSplit layer_split(const std::vector<Span>& spans, const std::vector<std::uint32_t>& threads,
                       std::int64_t window_start_ns, std::int64_t window_end_ns);

}  // namespace perfbench
