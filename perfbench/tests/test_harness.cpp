// Unit tests of the benchmark harness: the percentile sample rule, open-loop
// scheduled-time accounting, failure handling, span self time, the output
// checks (each fed a failing input) and the law decorator.
//
// Build and run through `python3 perfbench/run.py --self-test`, or directly:
// perfbench_tests exits non-zero when any expectation fails.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/http_client.hpp"
#include "api/http_server.hpp"
#include "checks.hpp"
#include "common/random.hpp"
#include "counting_law.hpp"
#include "dist/exponential.hpp"
#include "loadgen.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;
int g_checks = 0;

void expect(bool ok, const char* what, int line) {
  ++g_checks;
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentile_needs_ten_beyond() {
  EXPECT(samples_needed(99) == 1000);
  EXPECT(samples_needed(50) == 20);
  EXPECT(samples_needed(90) == 100);
  EXPECT(!percentile(ramp(999), 99).valid);
  const Percentile p99 = percentile(ramp(1000), 99);
  EXPECT(p99.valid && p99.beyond == 10 && p99.value == 990.0 && p99.samples == 1000);
  EXPECT(!percentile(ramp(19), 50).valid);
  EXPECT(percentile(ramp(20), 50).valid);
  EXPECT(!percentile({}, 50).valid);
  EXPECT(median({1.0, 3.0, 2.0, 4.0}) == 2.5);
}

void test_failures_count_over_any_limit() {
  OpRecord failed;
  failed.scheduled_s = 0.0;
  failed.sent_s = 0.0;
  failed.done_s = 0.001;
  failed.ok = false;
  EXPECT(std::isinf(failed.latency_ms()));
  // 989 fast requests and 11 failures: the p99 lands on a failure.
  std::vector<double> lat(989, 1.0);
  lat.insert(lat.end(), 11, failed.latency_ms());
  const Percentile p99 = percentile(lat, 99);
  EXPECT(p99.valid && std::isinf(p99.value));
  // With only 10 failures the p99 is still a real request.
  std::vector<double> lat10(990, 1.0);
  lat10.insert(lat10.end(), 10, kFailed);
  EXPECT(percentile(lat10, 99).value == 1.0);
}

void test_open_loop_stall_inflates_later_requests() {
  // One connection, a request due every 10 ms; request 5 stalls for 150 ms.
  const auto t0 = SteadyClock::now() + std::chrono::milliseconds(5);
  const std::vector<OpRecord> r = run_open_loop(
      1, 100.0, 20,
      [](std::size_t i, std::size_t) {
        if (i == 5) std::this_thread::sleep_for(std::chrono::milliseconds(150));
        if (i == 7) throw std::runtime_error("refused");
        return true;
      },
      t0);
  EXPECT(r.size() == 20);
  EXPECT(r[3].latency_ms() < 50.0);
  // Request 6 was due 10 ms after request 5 but could only go out after the
  // stall: its latency counts the wait, and the generator reports being late.
  EXPECT(r[6].latency_ms() > 130.0);
  EXPECT(r[6].lateness_ms() > 130.0);
  EXPECT(r[6].service_ms() < 50.0);
  EXPECT(std::isinf(r[7].latency_ms()));  // the refused request
  EXPECT(r[8].latency_ms() > 100.0);      // still behind schedule
  EXPECT(r[19].scheduled_s == 0.19);
}

void test_open_loop_against_a_stalling_http_server() {
  // The same accounting over real loopback HTTP: the server stalls one
  // request, and the requests queued behind it on the connection pay for it.
  preempt::api::HttpServer server;
  server.start([](const preempt::api::HttpRequest& req) {
    if (req.path() == "/stall") std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return preempt::api::HttpResponse::json(200, "{}");
  });
  preempt::api::HttpConnection conn(server.port());
  const auto t0 = SteadyClock::now() + std::chrono::milliseconds(5);
  const std::vector<OpRecord> r = run_open_loop(
      1, 100.0, 12,
      [&conn](std::size_t i, std::size_t) {
        return conn.get(i == 4 ? "/stall" : "/fast").status == 200;
      },
      t0);
  server.stop();
  EXPECT(r[2].ok && r[2].latency_ms() < 50.0);
  EXPECT(r[4].latency_ms() > 140.0);
  EXPECT(r[5].latency_ms() > 130.0 && r[5].lateness_ms() > 130.0);
  EXPECT(r[5].service_ms() < 50.0);
}

void test_open_loop_generator_cpu_excludes_other_threads() {
  // The generator's CPU covers its own threads: the 1 ms of work each send
  // does counts, a thread burning CPU beside the generator does not.
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    while (!stop.load()) {
    }
  });
  const double cpu0 = process_cpu_seconds();
  double generator_cpu_s = -1.0;
  const auto t0 = SteadyClock::now() + std::chrono::milliseconds(5);
  run_open_loop(
      2, 100.0, 40,
      [](std::size_t, std::size_t) {
        const auto until = SteadyClock::now() + std::chrono::milliseconds(1);
        while (SteadyClock::now() < until) {
        }
        return true;
      },
      t0, &generator_cpu_s);
  stop = true;
  burner.join();
  const double process_cpu_s = process_cpu_seconds() - cpu0;
  EXPECT(generator_cpu_s >= 0.02);
  EXPECT(generator_cpu_s + 0.05 < process_cpu_s);
}

Span make(std::uint64_t id, std::uint64_t parent, const char* layer, std::int64_t s,
          std::int64_t e, std::uint32_t thread = 1) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.layer = layer;
  span.name = layer;
  span.start_ns = s;
  span.end_ns = e;
  span.thread = thread;
  return span;
}

void test_self_time_nested() {
  // A[0,100] > {B[10,40] > E[15,20], D[70,80]}; thread 2 holds an orphan.
  const std::vector<Span> spans = {make(1, 0, "x", 0, 100), make(2, 1, "y", 10, 40),
                                   make(3, 2, "x", 15, 20), make(4, 1, "z", 70, 80),
                                   make(5, 0, "w", 0, 500, 2)};
  const auto self = self_times(spans);
  EXPECT(self.at(1) == 60);  // 100 - (30 + 10)
  EXPECT(self.at(2) == 25);
  EXPECT(self.at(3) == 5);
  EXPECT(self.at(4) == 10);
  const LayerSplit split = layer_split(spans, {1}, 0, 200);
  EXPECT(std::fabs(split.self_ms.at("x") - 65e-6) < 1e-12);
  EXPECT(std::fabs(split.self_ms.at("y") - 25e-6) < 1e-12);
  EXPECT(split.self_ms.count("w") == 0);            // not on the timeline
  EXPECT(std::fabs(split.other_ms - 100e-6) < 1e-12);  // idle half of the window
  EXPECT(std::fabs(split.accounted_ms - split.wall_ms) < 1e-12);

  // Overlapping children (parallel work) are covered once in the parent,
  // so the sum of self times then exceeds the wall: accounting flags it.
  const std::vector<Span> parallel = {make(1, 0, "x", 0, 100), make(2, 1, "y", 0, 80),
                                      make(3, 1, "y", 0, 80)};
  EXPECT(self_times(parallel).at(1) == 20);
  const LayerSplit p = layer_split(parallel, {1}, 0, 100);
  EXPECT(p.accounted_ms > p.wall_ms * 1.5);

  // Window clipping: only the part of a span inside the window counts.
  const LayerSplit clipped = layer_split({make(1, 0, "x", 50, 150)}, {1}, 100, 200);
  EXPECT(std::fabs(clipped.self_ms.at("x") - 50e-6) < 1e-12);
}

void test_span_scopes_nest() {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  std::uint64_t outer_id = 0;
  {
    const SpanScope outer("outer", "a", 7);
    outer_id = outer.id();
    const SpanScope inner("inner", "b");
  }
  {
    const SpanScope explicit_child("remote", "c", 7, outer_id);
  }
  tracer.set_enabled(false);
  { const SpanScope off("off", "d"); }
  const std::vector<Span> spans = tracer.spans();
  EXPECT(spans.size() == 3);
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name == "outer") EXPECT(s.parent == 0 && s.request == 7);
    if (name == "inner") EXPECT(s.parent == outer_id);
    if (name == "remote") EXPECT(s.parent == outer_id);
  }
  tracer.clear();
}

void test_output_checks_reject_bad_inputs() {
  std::string why;
  EXPECT(same_bytes("abc", "abc", &why));
  EXPECT(!same_bytes("abc", "abd", &why) && why.find("offset 2") != std::string::npos);

  preempt::fleet::FleetReport fleet;
  fleet.tasks_submitted = 10;
  fleet.tasks_completed = 10;
  EXPECT(fleet_report_complete(fleet, &why));
  fleet.tasks_completed = 9;
  EXPECT(!fleet_report_complete(fleet, &why));
  fleet.tasks_submitted = fleet.tasks_completed = 0;
  EXPECT(!fleet_report_complete(fleet, &why));

  const std::string lifetimes =
      R"({"regime":"r","expected_lifetime_hours":1,"mean_lifetime_hours":2})";
  EXPECT(response_ok(Route::kLifetimes, 200, lifetimes, &why));
  EXPECT(!response_ok(Route::kLifetimes, 500, lifetimes, &why));
  EXPECT(!response_ok(Route::kLifetimes, 200, R"({"regime":"r"})", &why));
  EXPECT(!response_ok(Route::kModels, 200, "not json", &why));
  EXPECT(response_ok(Route::kBagsPost, 202, R"({"id":3,"status":"queued"})", &why));
  EXPECT(!response_ok(Route::kBagsPost, 200, R"({"id":3,"status":"queued"})", &why));
  EXPECT(!response_ok(Route::kBagsPost, 202, R"({"id":3,"status":"failed"})", &why));
  EXPECT(!response_ok(Route::kPortfolio, 200,
                      R"({"jobs":1,"markets_used":0,"expected_cost":0,"allocation":[]})", &why));
  EXPECT(!response_ok(Route::kBagsList, 200,
                      R"({"jobs":{},"total":0,"limit":5,"offset":0})", &why));

  const std::string report = R"({"jobs_completed":5,"cost_per_job":0.25})";
  EXPECT(bag_report_matches(R"({"id":1,"status":"done","report":)" + report + "}", report, &why));
  EXPECT(!bag_report_matches(R"({"id":1,"status":"done","report":{"jobs_completed":4,)"
                             R"("cost_per_job":0.25}})",
                             report, &why));
  EXPECT(!bag_report_matches(R"({"id":1,"status":"running"})", report, &why));
  EXPECT(!bag_report_matches(R"({"id":1,"status":"failed","error":"x"})", report, &why));
}

void test_counting_law_is_transparent() {
  const preempt::dist::Exponential plain(0.5);
  const preempt::dist::DistributionPtr wrapped =
      counted(std::make_unique<preempt::dist::Exponential>(0.5));
  const preempt::dist::DistributionPtr copy = wrapped->clone();
  const DrawCounts before = draw_counts();
  preempt::Rng a(11);
  preempt::Rng b(11);
  std::vector<double> x(300), y(300);
  plain.sample_many(a, x);
  copy->sample_many(b, y);
  EXPECT(x == y);
  EXPECT(plain.sample(a) == wrapped->sample(b));
  EXPECT(plain.quantile(0.3) == wrapped->quantile(0.3));
  EXPECT(wrapped->name() == plain.name());
  const DrawCounts d = draw_counts() - before;
  EXPECT(d.draws == 301 && d.sample_many_calls == 1 && d.sample_calls == 1);
}

}  // namespace

int main() {
  test_percentile_needs_ten_beyond();
  test_failures_count_over_any_limit();
  test_open_loop_stall_inflates_later_requests();
  test_open_loop_against_a_stalling_http_server();
  test_open_loop_generator_cpu_excludes_other_threads();
  test_self_time_nested();
  test_span_scopes_nest();
  test_output_checks_reject_bad_inputs();
  test_counting_law_is_transparent();
  std::printf("perfbench_tests: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}
