// In-memory span recorder for the traced run.
//
// Spans are recorded only by the benchmark's own code, around each call
// into a layer of the program under test.  Each thread appends to its own
// buffer (no lock on the hot path); buffers outlive their threads and are
// collected and written out once the run ends.  With recording off a Span
// costs one relaxed load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one request; 0 = none
};

/// Turn recording on or off for all threads.
void set_tracing(bool on);
bool tracing();

/// Monotonic clock in nanoseconds (steady_clock).
int64_t now_ns();

/// Scoped span.  `request` 0 inherits the enclosing span's request id.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Duration so far (or total, after end()) in microseconds.
  double elapsed_us() const;

 private:
  int64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  const char* name_ = nullptr;
  bool live_ = false;
};

/// Every span recorded so far, from all threads, in no particular order.
/// Call only after the recording threads have been joined.
std::vector<SpanRecord> collected_spans();
/// Spans dropped because the in-memory budget was full.
int64_t dropped_spans();
/// Forget every recorded span.
void clear_spans();

struct LayerTime {
  int64_t count = 0;
  double total_ms = 0;  // sum of span durations
  double self_ms = 0;   // minus the time covered by child spans
};
/// Per-span-name totals and self time: a span's self time is its duration
/// minus the part of it covered by its children's intervals.
std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans);

/// Write spans as JSON: {"fields": [...], "spans": [[name, start_ns,
/// dur_ns, id, parent, request], ...]}, start relative to the earliest
/// span; false when the file could not be written.
bool write_spans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench
