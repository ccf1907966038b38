#include "served_daemon.hpp"

#include "tracer.hpp"

namespace perfbench {

namespace {

std::uint64_t query_u64(const preempt::api::HttpRequest& request, const char* name) {
  const auto v = request.query(name);
  if (!v) return 0;
  try {
    return std::stoull(*v);
  } catch (const std::exception&) {
    return 0;
  }
}

}  // namespace

std::string route_label(const preempt::api::HttpRequest& request) {
  const std::string path = request.path();
  if (request.method == "GET") {
    if (path == "/v1/lifetimes") return "lifetimes";
    if (path == "/v1/models") return "models";
    if (path == "/v1/decisions/reuse") return "reuse";
    if (path == "/v1/portfolio") return "portfolio";
    if (path == "/v1/bags") return "bags_list";
    if (path.rfind("/v1/bags/", 0) == 0) return "bag_get";
  } else if (request.method == "POST") {
    if (path == "/v1/observations") return "observations";
    if (path == "/v1/bags") return "bags_post";
    if (path == "/v1/scenarios/run") return "scenarios_run";
  }
  return "other";
}

std::string tag_target(const std::string& target, std::uint64_t rid, std::uint64_t span) {
  return target + (target.find('?') == std::string::npos ? "?" : "&") +
         "rid=" + std::to_string(rid) + "&sp=" + std::to_string(span);
}

ServedDaemon::ServedDaemon(preempt::api::ServiceDaemon::Options options)
    : daemon_(std::make_unique<preempt::api::ServiceDaemon>(options)) {
  preempt::api::HttpServer::Options opts;  // as ServiceDaemon::start sets them
  opts.port = 0;
  opts.worker_threads = options.http_workers;
  server_.start(
      [this](const preempt::api::HttpRequest& request) {
        if (!Tracer::instance().enabled()) return daemon_->handle(request);
        const std::uint64_t rid = query_u64(request, "rid");
        const std::int64_t start = now_ns();
        preempt::api::HttpResponse response;
        {
          const SpanScope span("api.handle", "api", rid, query_u64(request, "sp"));
          response = daemon_->handle(request);
        }
        const double us = static_cast<double>(now_ns() - start) / 1e3;
        const std::string route = route_label(request);
        const std::lock_guard<std::mutex> lock(mutex_);
        by_route_[route].push_back(us);
        if (rid != 0) by_request_[rid] = us;
        return response;
      },
      opts);
}

ServedDaemon::~ServedDaemon() { stop(); }

void ServedDaemon::stop() { server_.stop(); }

std::map<std::string, std::vector<double>> ServedDaemon::handler_us() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return by_route_;
}

std::map<std::uint64_t, double> ServedDaemon::handler_us_by_request() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return by_request_;
}

void ServedDaemon::clear_samples() {
  const std::lock_guard<std::mutex> lock(mutex_);
  by_route_.clear();
  by_request_.clear();
}

}  // namespace perfbench
