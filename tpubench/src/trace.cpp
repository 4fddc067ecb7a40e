#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace tpubench {
namespace {

// Spans open on this thread, innermost last.
thread_local std::vector<SpanRecord> t_open;

std::uint32_t ThreadIndex() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::Begin(const char* name, std::int64_t request) {
  SpanRecord r;
  r.name = name;
  {
    std::lock_guard lock(mu_);
    r.id = next_id_++;
  }
  r.parent = t_open.empty() ? 0 : t_open.back().id;
  r.request = request;
  r.thread = ThreadIndex();
  r.start_ns = NowNs();
  t_open.push_back(std::move(r));
  return t_open.back().id;
}

void Tracer::End(std::uint64_t id) {
  // Spans are RAII-scoped, so the innermost open span is the one closing.
  if (t_open.empty() || t_open.back().id != id) return;
  SpanRecord r = std::move(t_open.back());
  t_open.pop_back();
  r.end_ns = NowNs();
  std::lock_guard lock(mu_);
  done_.push_back(std::move(r));
}

void Tracer::Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::int64_t request) {
  SpanRecord r;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.request = request;
  r.thread = ThreadIndex();
  std::lock_guard lock(mu_);
  r.id = next_id_++;
  done_.push_back(std::move(r));
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard lock(mu_);
  return done_;
}

void Tracer::Clear() {
  std::lock_guard lock(mu_);
  done_.clear();
}

std::map<std::string, std::int64_t> LayerSelfTimeNs(
    const std::vector<SpanRecord>& spans) {
  // Children of one parent never overlap (they nest on the parent's
  // thread), so the covered part is the sum of the children's durations.
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::int64_t> self;
  for (const SpanRecord& s : spans) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    const auto it = child_ns.find(s.id);
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    self[layer] += std::max<std::int64_t>(0, s.end_ns - s.start_ns - covered);
  }
  return self;
}

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            const std::string& provenance_json) {
  std::string out = "{\"displayTimeUnit\": \"ns\", \"otherData\": ";
  out += provenance_json;
  out += ", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
        "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": {\"id\": %llu, "
        "\"parent\": %llu, \"request\": %lld}}%s\n",
        s.name.c_str(), layer.c_str(), static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<long long>(s.request), i + 1 < spans.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace tpubench
