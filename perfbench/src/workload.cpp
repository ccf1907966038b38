#include "workload.hpp"

#include <cstdio>
#include <cstring>
#include <ctime>

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void MetricSet::add(const std::string& name, double value, const std::string& unit,
                    const std::string& note) {
  preempt::JsonObject m;
  m.emplace_back("value", value);
  m.emplace_back("unit", unit);
  if (!note.empty()) m.emplace_back("note", note);
  entries_.emplace_back(name, preempt::JsonValue(std::move(m)));
}

void MetricSet::add_percentile(const std::string& name, const Percentile& p,
                               const std::string& unit) {
  char note[112];
  std::snprintf(note, sizeof(note), "p%g of n=%zu, %zu beyond", p.q, p.samples, p.beyond);
  if (!p.valid) {
    std::snprintf(note + std::strlen(note), sizeof(note) - std::strlen(note),
                  " (too few samples: needs n=%zu)", samples_needed(p.q));
  }
  add(name, p.value, unit, note);
}

preempt::JsonValue MetricSet::to_json() const { return preempt::JsonValue(entries_); }

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over (seed, salt); kept below 2^53 so the value
  // survives a JSON round trip as an exact integer.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z & ((1ULL << 53) - 1);
}

void add_layer_split(MetricSet& layer, const LayerSplit& split, double ops) {
  const double per = ops > 0 ? 1.0 / ops : 0.0;
  for (const char* name : {"dist", "mc", "policy", "sim", "portfolio", "scenario", "fleet", "api",
                           "shard", "harness"}) {
    const auto it = split.self_ms.find(name);
    layer.add(std::string("trace.self_ms.") + name,
              (it == split.self_ms.end() ? 0.0 : it->second) * per, "ms", "per op");
  }
  layer.add("trace.other_ms", split.other_ms * per, "ms", "per op");
  layer.add("trace.wall_ms", split.wall_ms * per, "ms", "per op, timelines x window");
  layer.add("trace.accounted_share", split.wall_ms > 0 ? split.accounted_ms / split.wall_ms : 0.0,
            "ratio", "(self times + other) / wall; 1 when spans nest cleanly");
}

}  // namespace perfbench
