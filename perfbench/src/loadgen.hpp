// Open-loop load generation with scheduled-time accounting.
//
// Request i is due at t0 + i / rate and is sent by thread i mod T, each
// thread holding its own keep-alive connection. A thread that falls behind
// (a slow or stalled server) sends its next request late, and that request's
// latency is still timed from when it was due — so a stall inflates the
// latency of every request queued behind it instead of silently lowering the
// offered load. How late the generator itself sent is reported separately.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {

struct OpRecord {
  double scheduled_s = 0.0;  ///< due time, seconds after t0
  double sent_s = 0.0;       ///< when the generator actually sent it
  double done_s = 0.0;       ///< when the response was complete
  bool ok = false;           ///< status, shape and content as expected

  /// Latency from the due time; failures count as over any limit.
  double latency_ms() const { return ok ? (done_s - scheduled_s) * 1e3 : kFailed; }
  /// Generator lateness: how long after its due time the request went out.
  double lateness_ms() const { return (sent_s - scheduled_s) * 1e3; }
  /// Client-observed service time from the actual send.
  double service_ms() const { return (done_s - sent_s) * 1e3; }
};

/// Send one request synchronously: (index, thread) -> ok. Exceptions count
/// as failures.
using SendFn = std::function<bool(std::size_t index, std::size_t thread)>;

/// Run `count` requests at `rate_per_s` over `threads` threads starting at
/// `t0`; returns one record per request, indexed like the requests. When
/// `generator_cpu_s` is given it receives the CPU seconds the generator's own
/// threads used (spin-waits, sends, receives and `send`'s checks), so a
/// caller can tell the server's CPU apart from the load generator's.
std::vector<OpRecord> run_open_loop(std::size_t threads, double rate_per_s, std::size_t count,
                                    const SendFn& send, SteadyClock::time_point t0,
                                    double* generator_cpu_s = nullptr);

}  // namespace perfbench
