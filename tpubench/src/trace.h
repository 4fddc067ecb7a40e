// Spans around the harness's calls into each library layer, kept in memory
// and written once, at exit, in Chrome trace-event format (load the file in
// Perfetto or chrome://tracing).
//
// A span is named "<layer>.<call>" with the layer taken from the library's
// module names (serve, plan, core, features, nn, autotuner, analytical, sim,
// dataset). Spans nest per thread: the span open on the calling thread when
// another starts is its parent. Serving spans carry the request id.
//
// Disabled tracing costs one branch per span; the untraced run measures the
// end-to-end metrics and the traced run the per-layer ones.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tpubench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      // 0 = root
  std::int64_t request = -1;     // serving request id, -1 when none
  std::uint32_t thread = 0;      // small per-process thread index
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // Opens a span on the calling thread and returns its id.
  std::uint64_t Begin(const char* name, std::int64_t request);
  // Closes the innermost open span of the calling thread (must be `id`).
  void End(std::uint64_t id);
  // Records an already-finished span with explicit times (a request whose
  // life started at its scheduled send time, before any code ran for it).
  void Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t request);

  std::vector<SpanRecord> Snapshot() const;
  // Drops every recorded span.
  void Clear();

 private:
  const std::chrono::steady_clock::time_point epoch_;
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> done_;
  std::uint64_t next_id_ = 1;
};

// The process's tracer.
Tracer& GlobalTracer();

// RAII span; does nothing when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::int64_t request = -1) {
    Tracer& t = GlobalTracer();
    if (t.enabled()) id_ = t.Begin(name, request);
  }
  ~Span() {
    if (id_ != 0) GlobalTracer().End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t id_ = 0;
};

// Self time per layer in nanoseconds: each span's duration minus the part
// of it covered by its child spans, summed per layer (the name up to the
// first '.').
std::map<std::string, std::int64_t> LayerSelfTimeNs(
    const std::vector<SpanRecord>& spans);

// Chrome trace-event JSON ("X" complete events, microsecond times) with the
// given provenance object as "otherData".
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            const std::string& provenance_json);

}  // namespace tpubench
