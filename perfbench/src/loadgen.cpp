#include "loadgen.hpp"

#include <sys/prctl.h>

#include <ctime>
#include <thread>

namespace perfbench {

namespace {
constexpr int kSpinMicros = 100;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

std::vector<OpRecord> run_open_loop(std::size_t threads, double rate_per_s, std::size_t count,
                                    const SendFn& send, SteadyClock::time_point t0,
                                    double* generator_cpu_s) {
  std::vector<OpRecord> records(count);
  std::vector<double> thread_cpu_s(threads, 0.0);
  const auto seconds_since = [t0](SteadyClock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t k = 0; k < threads; ++k) {
    pool.emplace_back([&, k] {
      // Wake on time: no timer slack, and spin the last stretch before each
      // due time, so the generator's own wake-up jitter stays out of the
      // latencies it measures.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::size_t i = k; i < count; i += threads) {
        OpRecord& r = records[i];
        r.scheduled_s = static_cast<double>(i) / rate_per_s;
        const auto due = t0 + std::chrono::duration_cast<SteadyClock::duration>(
                                  std::chrono::duration<double>(r.scheduled_s));
        std::this_thread::sleep_until(due - std::chrono::microseconds(kSpinMicros));
        while (SteadyClock::now() < due) {
        }
        r.sent_s = seconds_since(SteadyClock::now());
        try {
          r.ok = send(i, k);
        } catch (const std::exception&) {
          r.ok = false;
        }
        r.done_s = seconds_since(SteadyClock::now());
      }
      thread_cpu_s[k] = thread_cpu_seconds();
    });
  }
  for (std::thread& t : pool) t.join();
  if (generator_cpu_s != nullptr) {
    *generator_cpu_s = 0.0;
    for (const double s : thread_cpu_s) *generator_cpu_s += s;
  }
  return records;
}

}  // namespace perfbench
