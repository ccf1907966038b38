// daemon-mixed: the Sec. 5 controller as its clients see it. An open loop at
// one fixed offered rate drives an in-process ServiceDaemon over loopback
// from 4 threads, each with its own keep-alive connection. Nine requests in
// ten are reads (/v1/lifetimes, /v1/models, /v1/decisions/reuse, warm
// /v1/portfolio, /v1/bags?limit, GET /v1/bags/{id}); one in ten is a write
// (POST /v1/observations into the drift monitors, or a small POST /v1/bags
// journaled to a JSONL store).
//
// Latency is timed from each request's scheduled send time. GET
// /v1/bags/{id} slots poll the oldest bag not yet seen done, which gives the
// bag turnaround (scheduled submit -> observed done). The bounded figure is
// requests served per CPU-second of the daemon's own threads: the offered
// rate is fixed and far below capacity, so a costlier request shows up in
// CPU long before it shows up as lost requests.
//
// Checks: every response has the expected status and JSON shape, and every
// finished bag's report equals scenario::run_service of the same spec run
// in-process against the same bootstrap registry.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "api/http_client.hpp"
#include "checks.hpp"
#include "core/registry.hpp"
#include "loadgen.hpp"
#include "scenario/runner.hpp"
#include "served_daemon.hpp"
#include "sim/workloads.hpp"
#include "trace/generator.hpp"
#include "trace/ground_truth.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace preempt;

/// Offered rate: about half of the closed-loop capacity of this mix on a
/// shared 4-vCPU VM (see perfbench/README.md).
constexpr double kRatePerSecond = 3400.0;
constexpr std::size_t kClientThreads = 4;
/// A request counts as served only when it was answered correctly within
/// this long after its due time.
constexpr double kLatencyLimitMs = 25.0;

const Route kWeighted[] = {
    // 90% reads, 10% writes, in twentieths.
    Route::kLifetimes, Route::kLifetimes, Route::kLifetimes, Route::kLifetimes,
    Route::kModels,    Route::kModels,    Route::kModels,    Route::kModels,
    Route::kReuse,     Route::kReuse,     Route::kReuse,     Route::kReuse,
    Route::kPortfolio, Route::kPortfolio, Route::kBagsList,  Route::kBagsList,
    Route::kBagGet,    Route::kBagGet,    Route::kObservations, Route::kBagsPost,
};

struct BagSpec {
  std::string app;
  std::size_t jobs = 0;
  std::size_t vms = 0;
  std::uint64_t seed = 0;
  std::string policy;

  std::string body() const {
    return "{\"app\":\"" + app + "\",\"jobs\":" + std::to_string(jobs) +
           ",\"vms\":" + std::to_string(vms) + ",\"seed\":" + std::to_string(seed) +
           ",\"policy\":\"" + policy + "\"}";
  }
};

struct Request {
  Route route = Route::kLifetimes;
  std::string target;  ///< empty for kBagGet (chosen at send time)
  std::string body;
  int bag_spec = -1;
};

std::string regime_query(std::mt19937_64& rng) {
  static const char* kTypes[] = {"n1-highcpu-2", "n1-highcpu-4", "n1-highcpu-8", "n1-highcpu-16",
                                 "n1-highcpu-32"};
  static const char* kZones[] = {"us-central1-c", "us-central1-f", "us-west1-a", "us-east1-b"};
  return std::string("type=") + kTypes[rng() % 5] + "&zone=" + kZones[rng() % 4];
}

std::vector<BagSpec> bag_specs(std::uint64_t seed) {
  std::mt19937_64 rng(derive_seed(seed, 31));
  static const char* kApps[] = {"nanoconfinement", "shapes", "lulesh"};
  static const char* kPolicies[] = {"model", "memoryless", "fresh"};
  std::vector<BagSpec> out;
  for (int i = 0; i < 24; ++i) {
    BagSpec b;
    b.app = kApps[rng() % 3];
    b.jobs = 4 + rng() % 9;
    b.vms = 8 + 4 * (rng() % 3);  // >= the largest gang (lulesh runs on 8 VMs)
    b.seed = rng() % 1000;
    b.policy = kPolicies[rng() % 3];
    out.push_back(b);
  }
  return out;
}

std::vector<Request> make_mix(std::uint64_t seed, std::size_t count, std::size_t specs) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Request> mix(count);
  char buf[256];
  for (Request& r : mix) {
    r.route = kWeighted[rng() % 20];
    switch (r.route) {
      case Route::kLifetimes:
        r.target = "/v1/lifetimes?" + regime_query(rng);
        break;
      case Route::kModels:
        r.target = "/v1/models?" + regime_query(rng);
        break;
      case Route::kReuse:
        std::snprintf(buf, sizeof(buf), "/v1/decisions/reuse?age=%.3f&job=%.3f&",
                      23.0 * unit(rng), 0.1 + 7.9 * unit(rng));
        r.target = buf + regime_query(rng);
        break;
      case Route::kPortfolio: {
        static const char* kParams[] = {"jobs=50&risk=0.05", "jobs=100&risk=0.05",
                                        "jobs=200&risk=0.1"};
        r.target = std::string("/v1/portfolio?") + kParams[rng() % 3];
        break;
      }
      case Route::kBagsList:
        r.target = rng() % 2 == 0 ? "/v1/bags?limit=5" : "/v1/bags?limit=20";
        break;
      case Route::kBagGet:
        break;
      case Route::kObservations: {
        static const char* kTypes[] = {"n1-highcpu-8", "n1-highcpu-16", "n1-highcpu-32"};
        r.target = "/v1/observations";
        r.body = std::string("{\"type\":\"") + kTypes[rng() % 3] +
                 "\",\"zone\":\"us-east1-b\",\"lifetimes\":[";
        const int n = 8 + static_cast<int>(rng() % 25);
        for (int i = 0; i < n; ++i) {
          std::snprintf(buf, sizeof(buf), "%s%.4f", i == 0 ? "" : ",", 24.0 * unit(rng));
          r.body += buf;
        }
        r.body += "]}";
        break;
      }
      case Route::kBagsPost:
        r.target = "/v1/bags";
        r.bag_spec = static_cast<int>(rng() % specs);
        break;
    }
  }
  return mix;
}

/// Bags submitted in a window and the polling of the oldest unfinished one.
class BagBook {
 public:
  struct Bag {
    std::uint64_t id = 0;
    int spec = -1;
    double submit_scheduled_s = 0.0;
    double done_s = -1.0;  ///< observed done, seconds after t0
    std::string body;      ///< the done job resource
  };

  void add(std::uint64_t id, int spec, double scheduled_s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    bags_.push_back(Bag{id, spec, scheduled_s, -1.0, {}});
    pending_.push_back(bags_.size() - 1);
  }
  /// Take the oldest unfinished bag for a poll (nullopt when none).
  std::optional<std::pair<std::size_t, std::uint64_t>> claim() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty()) return std::nullopt;
    const std::size_t idx = pending_.front();
    pending_.pop_front();
    return std::make_pair(idx, bags_[idx].id);
  }
  void release(std::size_t idx, bool done, double t, std::string body) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!done) {
      pending_.push_front(idx);
      return;
    }
    bags_[idx].done_s = t;
    bags_[idx].body = std::move(body);
  }
  /// A recently submitted id (for GET slots with nothing pending).
  std::uint64_t recent_id(std::uint64_t fallback, std::uint64_t pick) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (bags_.empty()) return fallback;
    const std::size_t span = std::min<std::size_t>(bags_.size(), 50);
    return bags_[bags_.size() - 1 - pick % span].id;
  }
  std::vector<Bag> bags() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return bags_;
  }
  std::vector<std::size_t> pending() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {pending_.begin(), pending_.end()};
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Bag> bags_;
  std::deque<std::size_t> pending_;
};

std::uint64_t json_id(const std::string& body) {
  return static_cast<std::uint64_t>(parse_json(body).find("id")->as_number());
}

/// A job resource in a terminal state (done or failed).
bool is_finished(const std::string& body) {
  const JsonValue v = parse_json(body);
  const JsonValue* s = v.find("status");
  return s != nullptr && s->is_string() && (s->as_string() == "done" || s->as_string() == "failed");
}

struct Window {
  std::vector<Request> mix;
  std::vector<OpRecord> records;
  std::vector<BagBook::Bag> bags;
  std::vector<std::uint32_t> client_threads;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t undrained = 0;  ///< bags never seen done
  double cpu_s = 0.0;         ///< process CPU seconds spent in the open loop
  double daemon_cpu_s = 0.0;  ///< cpu_s minus the load generator's threads
};

/// The in-process twin of the daemon's bag execution.
class Reference {
 public:
  Reference() {
    const api::ServiceDaemon::Options defaults;
    trace::StudyConfig study;
    study.seed = defaults.bootstrap_seed;
    study.vms_per_cell = defaults.bootstrap_vms_per_cell;
    registry_ = core::ModelRegistry::fit_from_dataset(trace::generate_study(study),
                                                      defaults.horizon_hours);
  }

  struct Run {
    std::string report;  ///< "report" block as the daemon renders it
    double exec_ms = 0.0;
    sim::ServiceReport service;
  };

  const Run& run(const BagSpec& spec, int index) {
    const auto it = cache_.find(index);
    if (it != cache_.end()) return it->second;
    sim::Workload workload;
    for (const sim::Workload& w : sim::all_workloads()) {
      if (w.name == spec.app) workload = w;
    }
    const trace::RegimeKey regime{workload.vm_type, trace::Zone::kUsEast1B,
                                  trace::DayPeriod::kDay, trace::WorkloadKind::kBatch};
    scenario::ScenarioSpec cell;
    cell.kind = scenario::ScenarioKind::kService;
    cell.app = spec.app;
    cell.jobs = spec.jobs;
    cell.cluster_size = spec.vms;
    cell.seed = spec.seed;
    cell.policy = *sim::reuse_policy_from_string(spec.policy);
    cell.replications = 1;
    const auto t0 = SteadyClock::now();
    const dist::DistributionPtr truth = trace::ground_truth_distribution(regime).clone();
    const dist::DistributionPtr decision = registry_.lookup(regime).distribution().clone();
    const scenario::ScenarioResult result = scenario::run_service(cell, *truth, *decision);
    Run r;
    r.exec_ms = seconds_since(t0) * 1e3;
    r.service = result.report;
    JsonObject report;
    scenario::append_report_fields(report, result.report);
    r.report = JsonValue(std::move(report)).dump();
    return cache_.emplace(index, std::move(r)).first->second;
  }

 private:
  core::ModelRegistry registry_;
  std::map<int, Run> cache_;
};

struct StoreWatch {
  std::size_t bytes_appended = 0;
  std::size_t compactions = 0;
};

}  // namespace

WorkloadReport run_daemon_mixed(const RunConfig& config) {
  WorkloadReport report;
  const auto setup_start = SteadyClock::now();
  const std::string store_path =
      config.out_dir + "/daemon-jobs-" + std::to_string(config.seed) + ".jsonl";
  std::remove(store_path.c_str());
  const std::vector<BagSpec> specs = bag_specs(config.seed);

  api::ServiceDaemon::Options options;
  options.store_path = store_path;
  auto served = std::make_unique<ServedDaemon>(options);
  std::vector<std::unique_ptr<api::HttpConnection>> conns;
  for (std::size_t k = 0; k < kClientThreads; ++k) {
    conns.push_back(std::make_unique<api::HttpConnection>(served->port()));
    conns.back()->set_recv_timeout(10.0);
  }
  // Warm-up: every route on every connection, every portfolio parameter set
  // (the first /v1/portfolio fits the market grid), and one bag round trip.
  std::uint64_t warm_bag = 0;
  {
    const std::vector<Request> warm = make_mix(derive_seed(config.seed, 1), 64, specs.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const Request& r = warm[i];
      api::HttpConnection& c = *conns[i % kClientThreads];
      if (r.route == Route::kBagGet) continue;
      const bool post = r.route == Route::kObservations || r.route == Route::kBagsPost;
      const std::string body = r.bag_spec >= 0 ? specs[r.bag_spec].body() : r.body;
      const api::HttpResponse resp = post ? c.post(r.target, body) : c.get(r.target);
      std::string why;
      report.checks.expect(response_ok(r.route, resp.status, resp.body, &why), "warm-up: " + why);
      if (r.route == Route::kBagsPost && resp.status == 202) warm_bag = json_id(resp.body);
    }
    for (const char* p : {"jobs=50&risk=0.05", "jobs=100&risk=0.05", "jobs=200&risk=0.1"}) {
      conns[0]->get(std::string("/v1/portfolio?") + p);
    }
    if (warm_bag == 0) warm_bag = json_id(conns[0]->post("/v1/bags", specs[0].body()).body);
    served->daemon().wait_for_bag(warm_bag, 30.0);
    conns[1]->get("/v1/bags/" + std::to_string(warm_bag));
  }
  report.setup_s = seconds_since(setup_start);
  if (config.setup_only) return report;

  Tracer& tracer = Tracer::instance();
  std::uint64_t next_rid = 1;
  // Target of bag polls with nothing pending: the newest bag submitted so
  // far, across windows (an older one may be evicted from the bounded store).
  std::atomic<std::uint64_t> latest_bag{warm_bag};
  const auto run_window = [&](double seconds, std::uint64_t salt) {
    Window w;
    const auto count = static_cast<std::size_t>(kRatePerSecond * seconds);
    w.mix = make_mix(derive_seed(config.seed, salt), count, specs.size());
    w.client_threads.assign(kClientThreads, 0);
    BagBook book;
    const std::uint64_t rid_base = next_rid;
    next_rid += count;
    std::mt19937_64 pick_rng(derive_seed(config.seed, salt + 1));
    std::vector<std::uint64_t> picks(count);
    for (auto& p : picks) p = pick_rng();
    const SteadyClock::time_point t0 = SteadyClock::now() + std::chrono::milliseconds(20);
    const auto since_t0 = [t0] { return seconds_since(t0); };

    const SendFn send = [&](std::size_t i, std::size_t k) {
      w.client_threads[k] = tracer.thread_number();
      const Request& r = w.mix[i];
      api::HttpConnection& c = *conns[k];
      const std::uint64_t rid = rid_base + i;
      const SpanScope span("api.request", "api", rid);
      std::string target = r.target;
      std::optional<std::pair<std::size_t, std::uint64_t>> claimed;
      if (r.route == Route::kBagGet) {
        claimed = book.claim();
        target = "/v1/bags/" +
                 std::to_string(claimed ? claimed->second : book.recent_id(latest_bag.load(), picks[i]));
      }
      if (tracer.enabled()) target = tag_target(target, rid, span.id());
      api::HttpResponse resp;
      try {
        resp = r.route == Route::kObservations ? c.post(target, r.body)
               : r.route == Route::kBagsPost   ? c.post(target, specs[r.bag_spec].body())
                                               : c.get(target);
      } catch (const std::exception&) {
        if (claimed) book.release(claimed->first, false, 0.0, {});
        throw;
      }
      const SpanScope check("harness.check", "harness", rid);
      std::string why;
      const bool ok = response_ok(r.route, resp.status, resp.body, &why);
      if (r.route == Route::kBagsPost && ok) {
        const std::uint64_t id = json_id(resp.body);
        book.add(id, r.bag_spec, static_cast<double>(i) / kRatePerSecond);
        latest_bag.store(id);
      }
      if (claimed) {
        const bool done = ok && is_finished(resp.body);
        book.release(claimed->first, done, since_t0(), done ? resp.body : std::string());
      }
      return ok;
    };
    w.start_ns = now_ns() + 20'000'000;
    const double cpu0 = process_cpu_seconds();
    double generator_cpu_s = 0.0;
    w.records = run_open_loop(kClientThreads, kRatePerSecond, count, send, t0, &generator_cpu_s);
    w.cpu_s = process_cpu_seconds() - cpu0;
    w.daemon_cpu_s = w.cpu_s - generator_cpu_s;
    w.end_ns = now_ns();
    // Drain: poll every bag not yet seen finished until it is.
    for (const std::size_t idx : book.pending()) {
      const std::uint64_t id = book.bags()[idx].id;
      const auto deadline = SteadyClock::now() + std::chrono::seconds(20);
      while (SteadyClock::now() < deadline) {
        const api::HttpResponse resp = conns[0]->get("/v1/bags/" + std::to_string(id));
        if (resp.status == 200 && is_finished(resp.body)) {
          book.release(idx, true, since_t0(), resp.body);
          break;
        }
        if (resp.status != 200) break;  // evicted or lost: reported as never finished
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    w.bags = book.bags();
    for (const BagBook::Bag& b : w.bags) {
      if (b.done_s < 0) ++w.undrained;
    }
    return w;
  };

  Reference reference;
  const auto check_window = [&](const Window& w, const char* what) {
    for (std::size_t i = 0; i < w.records.size(); ++i) {
      report.checks.expect(w.records[i].ok, std::string(what) + " request " + std::to_string(i) +
                                                " (" + route_name(w.mix[i].route) +
                                                ") failed or had the wrong status/shape");
    }
    for (const BagBook::Bag& b : w.bags) {
      if (b.done_s < 0) {
        report.checks.expect(false, "bag " + std::to_string(b.id) + " never finished");
        continue;
      }
      std::string why;
      report.checks.expect(
          bag_report_matches(b.body, reference.run(specs[b.spec], b.spec).report, &why),
          "bag " + std::to_string(b.id) + " report differs from in-process run_service: " + why);
    }
  };
  const auto latencies = [](const Window& w) {
    std::vector<double> out;
    for (const OpRecord& r : w.records) out.push_back(r.latency_ms());
    return out;
  };
  const auto turnarounds = [](const Window& w) {
    std::vector<double> out;
    for (const BagBook::Bag& b : w.bags) {
      out.push_back(b.done_s < 0 ? kFailed : (b.done_s - b.submit_scheduled_s) * 1e3);
    }
    return out;
  };

  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  const Window plain = run_window(untraced_s, 100);
  check_window(plain, "untraced");
  const std::vector<double> lat = latencies(plain);
  std::size_t within_limit = 0;
  for (const OpRecord& r : plain.records) {
    if (r.latency_ms() <= kLatencyLimitMs) ++within_limit;
  }
  report.e2e.add("items_per_s", static_cast<double>(within_limit) / plain.daemon_cpu_s, "1/s",
                 "requests answered correctly within 25 ms of their due time, per CPU-second "
                 "of the daemon's threads (" +
                     std::to_string(within_limit) + " requests)");
  report.e2e.add_percentile("p50_ms", percentile(lat, 50), "ms");
  report.e2e.add_percentile("p99_ms", percentile(lat, 99), "ms");
  const std::vector<double> jobs = turnarounds(plain);
  report.e2e.add_percentile("job_p50_ms", percentile(jobs, 50), "ms");
  report.e2e.add_percentile("job_p90_ms", percentile(jobs, 90), "ms");
  std::vector<double> late;
  for (const OpRecord& r : plain.records) late.push_back(r.lateness_ms());
  report.e2e.add_percentile("late_p99_ms", percentile(late, 99), "ms");

  if (config.trace) {
    served->clear_samples();
    const std::uint64_t served0 = served->server().connections_served();
    const std::uint64_t shed0 = served->server().connections_shed();
    // Watch the job journal from this (otherwise idle) thread.
    StoreWatch watch;
    std::atomic<bool> watching{true};
    std::thread watcher([&] {
      struct stat st{};
      ino_t inode = stat(store_path.c_str(), &st) == 0 ? st.st_ino : 0;
      off_t size = stat(store_path.c_str(), &st) == 0 ? st.st_size : 0;
      while (watching.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (stat(store_path.c_str(), &st) != 0) continue;
        if (st.st_ino != inode) {
          ++watch.compactions;
        } else if (st.st_size > size) {
          watch.bytes_appended += static_cast<std::size_t>(st.st_size - size);
        }
        inode = st.st_ino;
        size = st.st_size;
      }
    });
    tracer.set_enabled(true);
    const Window traced = run_window(config.seconds / 2, 200);
    tracer.set_enabled(false);
    watching = false;
    watcher.join();
    check_window(traced, "traced");

    MetricSet& l = report.layer;
    const auto handlers = served->handler_us();
    for (int r = 0; r < kRouteCount; ++r) {
      const std::string name = route_name(static_cast<Route>(r));
      const auto it = handlers.find(name);
      const std::vector<double> samples = it == handlers.end() ? std::vector<double>{}
                                                               : it->second;
      l.add_percentile("api.handle_us." + name + ".p50", percentile(samples, 50), "us");
      l.add_percentile("api.handle_us." + name + ".p99", percentile(samples, 99), "us");
    }
    const auto by_rid = served->handler_us_by_request();
    std::vector<double> transport;
    const std::uint64_t rid_base = next_rid - traced.records.size();
    for (std::size_t i = 0; i < traced.records.size(); ++i) {
      const auto it = by_rid.find(rid_base + i);
      if (it == by_rid.end() || !traced.records[i].ok) continue;
      transport.push_back(traced.records[i].service_ms() * 1e3 - it->second);
    }
    l.add_percentile("api.transport_us.p50", percentile(transport, 50), "us");
    l.add_percentile("api.transport_us.p99", percentile(transport, 99), "us");
    l.add("api.connections_served",
          static_cast<double>(served->server().connections_served() - served0), "count");
    l.add("api.connections_shed",
          static_cast<double>(served->server().connections_shed() - shed0), "count");
    std::vector<double> exec, overhead;
    double vms = 0, preemptions = 0, service_ms = 0;
    for (const BagBook::Bag& b : traced.bags) {
      if (b.done_s < 0) continue;
      const Reference::Run& run = reference.run(specs[b.spec], b.spec);
      exec.push_back(run.exec_ms);
      overhead.push_back((b.done_s - b.submit_scheduled_s) * 1e3 - run.exec_ms);
      vms += run.service.vms_launched;
      preemptions += run.service.preemptions;
      service_ms += run.exec_ms;
    }
    const double bags = std::max<double>(1.0, static_cast<double>(exec.size()));
    l.add("api.job_exec_ms", median(exec), "ms", "median in-process run_service of the same bag");
    l.add("api.job_overhead_ms", median(overhead), "ms", "median turnaround minus exec");
    l.add("api.store_bytes_per_job",
          static_cast<double>(watch.bytes_appended) /
              std::max<double>(1.0, static_cast<double>(traced.bags.size())),
          "bytes", "journal bytes appended per submitted bag");
    l.add("api.store_compactions", static_cast<double>(watch.compactions), "count");
    l.add("sim.service_ms", service_ms / bags, "ms", "per bag, in-process twin");
    l.add("sim.vms_launched", vms / bags, "count", "per bag");
    l.add("sim.preemptions", preemptions / bags, "count", "per bag");
    std::vector<double> traced_late;
    for (const OpRecord& r : traced.records) traced_late.push_back(r.lateness_ms());
    l.add_percentile("client.late_p99_ms", percentile(traced_late, 99), "ms");
    // Latency at this load is dominated by wake-ups and moves far more than
    // the tracing costs, so the overhead is the process CPU per request.
    l.add("trace.overhead_share",
          (traced.cpu_s / static_cast<double>(traced.records.size())) /
                  (plain.cpu_s / static_cast<double>(plain.records.size())) -
              1.0,
          "ratio", "traced vs untraced process CPU per request");
    add_layer_split(l, layer_split(tracer.spans(), traced.client_threads, traced.start_ns,
                                   traced.end_ns),
                    static_cast<double>(traced.records.size()));
  }
  conns.clear();
  served.reset();
  std::remove(store_path.c_str());
  return report;
}

}  // namespace perfbench
