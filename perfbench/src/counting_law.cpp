#include "counting_law.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

namespace {

// One slot per thread, written only by its owner (plain load+store on a
// relaxed atomic: no locked instruction on the draw path) and read by the
// reporting thread.
struct Slot {
  std::atomic<std::uint64_t> sample_calls{0};
  std::atomic<std::uint64_t> sample_many_calls{0};
  std::atomic<std::uint64_t> draws{0};
  std::atomic<std::uint64_t> sample_many_ns{0};
};

std::mutex g_slots_mutex;
std::vector<std::shared_ptr<Slot>>& slots() {
  static std::vector<std::shared_ptr<Slot>> all;
  return all;
}

Slot& local_slot() {
  thread_local std::shared_ptr<Slot> slot = [] {
    auto s = std::make_shared<Slot>();
    const std::lock_guard<std::mutex> lock(g_slots_mutex);
    slots().push_back(s);
    return s;
  }();
  return *slot;
}

inline void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by) {
  counter.store(counter.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

}  // namespace

DrawCounts DrawCounts::operator-(const DrawCounts& base) const {
  return {sample_calls - base.sample_calls, sample_many_calls - base.sample_many_calls,
          draws - base.draws, sample_many_ns - base.sample_many_ns};
}

DrawCounts draw_counts() {
  DrawCounts total;
  const std::lock_guard<std::mutex> lock(g_slots_mutex);
  for (const auto& s : slots()) {
    total.sample_calls += s->sample_calls.load(std::memory_order_relaxed);
    total.sample_many_calls += s->sample_many_calls.load(std::memory_order_relaxed);
    total.draws += s->draws.load(std::memory_order_relaxed);
    total.sample_many_ns += s->sample_many_ns.load(std::memory_order_relaxed);
  }
  return total;
}

preempt::dist::DistributionPtr CountingLaw::clone() const {
  return std::make_unique<CountingLaw>(inner_->clone());
}

double CountingLaw::sample(preempt::Rng& rng) const {
  Slot& s = local_slot();
  bump(s.sample_calls, 1);
  bump(s.draws, 1);
  return inner_->sample(rng);
}

void CountingLaw::sample_many(preempt::Rng& rng, std::span<double> out) const {
  Slot& s = local_slot();
  bump(s.sample_many_calls, 1);
  bump(s.draws, out.size());
  const SpanScope span("dist.sample_many", "dist");
  const std::int64_t start = now_ns();
  inner_->sample_many(rng, out);
  bump(s.sample_many_ns, static_cast<std::uint64_t>(now_ns() - start));
}

}  // namespace perfbench
