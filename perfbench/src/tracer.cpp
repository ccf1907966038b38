#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

struct ThreadBuffer {
  std::mutex mutex;  // uncontended except while spans() collects
  std::vector<Span> spans;
  std::uint32_t number = 0;
  std::uint64_t current = 0;  // innermost open SpanScope on this thread
};

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadBuffer>>& registry() {
  static std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  return buffers;
}
std::atomic<std::uint64_t> g_next_id{1};

ThreadBuffer& local_buffer() {
  // The registry co-owns every buffer, so spans outlive the thread that
  // recorded them (HTTP workers exit before the spans are written).
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    b->number = static_cast<std::uint32_t>(registry().size() + 1);
    registry().push_back(b);
    return b;
  }();
  return *buffer;
}

/// Measure of the union of [start, end) intervals.
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::next_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

std::uint32_t Tracer::thread_number() { return local_buffer().number; }

void Tracer::record(const Span& span) {
  ThreadBuffer& b = local_buffer();
  const std::lock_guard<std::mutex> lock(b.mutex);
  b.spans.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& b : registry()) {
    const std::lock_guard<std::mutex> inner(b->mutex);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& b : registry()) {
    const std::lock_guard<std::mutex> inner(b->mutex);
    b->spans.clear();
  }
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write span file " + path);
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"name\":\"%s\",\"layer\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"thread\":%u}\n",
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name, s.layer,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns), s.thread);
  }
  std::fclose(f);
}

SpanScope::SpanScope(const char* name, const char* layer, std::uint64_t request,
                     std::uint64_t explicit_parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  ThreadBuffer& b = local_buffer();
  span_.id = tracer.next_id();
  span_.parent = explicit_parent != 0 ? explicit_parent : b.current;
  span_.request = request;
  span_.name = name;
  span_.layer = layer;
  span_.thread = b.number;
  saved_parent_ = b.current;
  b.current = span_.id;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  local_buffer().current = saved_parent_;
  Tracer::instance().record(span_);
}

std::uint64_t record_span(const char* name, const char* layer, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint64_t parent, std::uint64_t request) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return 0;
  Span s;
  s.id = tracer.next_id();
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.layer = layer;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.thread = tracer.thread_number();
  tracer.record(s);
  return s.id;
}

std::map<std::uint64_t, std::int64_t> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> child_cover;
  for (const Span& c : spans) {
    if (c.parent == 0) continue;
    const auto it = by_id.find(c.parent);
    if (it == by_id.end()) continue;
    const Span& p = *it->second;
    child_cover[p.id].emplace_back(std::max(c.start_ns, p.start_ns),
                                   std::min(c.end_ns, p.end_ns));
  }
  std::map<std::uint64_t, std::int64_t> out;
  for (const Span& s : spans) {
    const auto it = child_cover.find(s.id);
    const std::int64_t covered = it == child_cover.end() ? 0 : union_length(it->second);
    out[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

LayerSplit layer_split(const std::vector<Span>& all, const std::vector<std::uint32_t>& threads,
                       std::int64_t window_start_ns, std::int64_t window_end_ns) {
  // Clip every span to the window first so partial ops at the edges count
  // only the part that ran inside it.
  std::vector<Span> spans;
  spans.reserve(all.size());
  for (Span s : all) {
    s.start_ns = std::max(s.start_ns, window_start_ns);
    s.end_ns = std::min(s.end_ns, window_end_ns);
    if (s.end_ns > s.start_ns) spans.push_back(s);
  }
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  const auto self = self_times(spans);

  LayerSplit split;
  const double window_ms = static_cast<double>(window_end_ns - window_start_ns) / 1e6;
  split.wall_ms = window_ms * static_cast<double>(threads.size());
  double roots_ms = 0.0;
  for (const std::uint32_t thread : threads) {
    std::vector<std::pair<std::int64_t, std::int64_t>> root_intervals;
    std::vector<const Span*> stack;
    for (const Span& s : spans) {
      if (s.parent == 0 && s.thread == thread) {
        root_intervals.emplace_back(s.start_ns, s.end_ns);
        stack.push_back(&s);
      }
    }
    roots_ms += static_cast<double>(union_length(root_intervals)) / 1e6;
    while (!stack.empty()) {
      const Span* s = stack.back();
      stack.pop_back();
      split.self_ms[s->layer] += static_cast<double>(self.at(s->id)) / 1e6;
      const auto it = children.find(s->id);
      if (it != children.end()) stack.insert(stack.end(), it->second.begin(), it->second.end());
    }
  }
  split.other_ms = split.wall_ms - roots_ms;
  split.accounted_ms = split.other_ms;
  for (const auto& [layer, ms] : split.self_ms) split.accounted_ms += ms;
  return split;
}

}  // namespace perfbench
