#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

// Budget across all threads; past it spans are counted, not stored.
constexpr int64_t kMaxSpans = 2'000'000;

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<int64_t> g_stored{0};
std::atomic<int64_t> g_dropped{0};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<SpanRecord>>> g_buffers;

struct ThreadState {
  std::vector<SpanRecord>* buf = nullptr;
  std::vector<std::pair<uint64_t, uint64_t>> stack;  // (id, request)
};
thread_local ThreadState t_state;

std::vector<SpanRecord>& thread_buffer() {
  if (!t_state.buf) {
    std::lock_guard<std::mutex> lk(g_buffers_mu);
    g_buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
    t_state.buf = g_buffers.back().get();
  }
  return *t_state.buf;
}

}  // namespace

void set_tracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool tracing() { return g_on.load(std::memory_order_relaxed); }

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(const char* name, uint64_t request) : name_(name) {
  live_ = tracing();
  start_ns_ = now_ns();
  if (!live_) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  auto& stack = t_state.stack;
  if (!stack.empty()) {
    parent_ = stack.back().first;
    if (request == 0) request = stack.back().second;
  }
  request_ = request;
  stack.emplace_back(id_, request_);
}

Span::~Span() {
  if (!live_) return;
  const int64_t end = now_ns();
  t_state.stack.pop_back();
  if (g_stored.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  thread_buffer().push_back({name_, start_ns_, end, id_, parent_, request_});
}

double Span::elapsed_us() const {
  return static_cast<double>(now_ns() - start_ns_) / 1e3;
}

std::vector<SpanRecord> collected_spans() {
  std::lock_guard<std::mutex> lk(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& b : g_buffers) all.insert(all.end(), b->begin(), b->end());
  return all;
}

int64_t dropped_spans() { return g_dropped.load(std::memory_order_relaxed); }

void clear_spans() {
  std::lock_guard<std::mutex> lk(g_buffers_mu);
  for (auto& b : g_buffers) b->clear();
  g_stored.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
}

std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const auto& s : spans)
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::map<std::string, LayerTime> out;
  for (const auto& s : spans) {
    int64_t covered = 0;
    if (auto it = kids.find(s.id); it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = -1;
      auto flush = [&] {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      };
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          flush();
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      flush();
    }
    LayerTime& lt = out[s.name];
    ++lt.count;
    const int64_t dur = s.end_ns - s.start_ns;
    lt.total_ms += static_cast<double>(dur) / 1e6;
    lt.self_ms += static_cast<double>(dur - covered) / 1e6;
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const auto& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"fields\":[\"name\",\"start_ns\",\"dur_ns\",\"id\","
             "\"parent\",\"request\"],\"spans\":[\n", f);
  bool first = true;
  for (const auto& s : spans) {
    std::fprintf(f, "%s[\"%s\",%lld,%lld,%llu,%llu,%llu]", first ? "" : ",\n",
                 s.name, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - s.start_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
