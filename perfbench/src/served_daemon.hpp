// A ServiceDaemon served over loopback through the library's own
// api::HttpServer, with the benchmark's handler decorator around
// ServiceDaemon::handle — the same wiring ServiceDaemon::start uses, plus an
// injection point for timing.
//
// With tracing on, the decorator times every handler call, files it under
// its route, and records an `api.handle` span. Requests the load generator
// tags with `rid`/`sp` query parameters link the span to the client's
// request span on another thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/http_server.hpp"
#include "api/service_daemon.hpp"

namespace perfbench {

/// Route label of a request: the daemon-mixed routes by name, plus
/// "scenarios_run" (shard dispatch) and "other".
std::string route_label(const preempt::api::HttpRequest& request);

/// Append `rid`/`sp` tracing tags to a request target.
std::string tag_target(const std::string& target, std::uint64_t rid, std::uint64_t span);

class ServedDaemon {
 public:
  explicit ServedDaemon(preempt::api::ServiceDaemon::Options options);
  ~ServedDaemon();

  std::uint16_t port() const noexcept { return server_.port(); }
  preempt::api::ServiceDaemon& daemon() noexcept { return *daemon_; }
  const preempt::api::HttpServer& server() const noexcept { return server_; }

  /// Handler durations (microseconds) by route label, recorded while tracing.
  std::map<std::string, std::vector<double>> handler_us() const;
  /// Handler duration by request id (tagged requests only).
  std::map<std::uint64_t, double> handler_us_by_request() const;
  void clear_samples();

  void stop();

 private:
  std::unique_ptr<preempt::api::ServiceDaemon> daemon_;
  preempt::api::HttpServer server_;
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> by_route_;
  std::map<std::uint64_t, double> by_request_;
};

}  // namespace perfbench
