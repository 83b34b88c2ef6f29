#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/metrics.hpp"  // format_double, detail::write_export

namespace ageo::obs {

namespace {

std::atomic<bool> g_tracing_enabled{false};

constexpr std::size_t kRingCapacity = 1 << 14;  // 16384 events / thread

std::uint64_t now_ns() noexcept {
  // Anchored to the first call so exported timestamps start near zero.
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// One thread's ring. The owning thread appends under the buffer mutex
/// (uncontended except during collect_trace); pool threads that exit
/// hand their buffer back for the next thread, which is safe for the
/// Chrome view because reused "tids" are temporally disjoint.
struct RingBuffer {
  std::mutex mu;
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;  // ring storage, capacity-fixed
  std::size_t next = 0;            // ring write cursor
  std::uint64_t total = 0;         // events ever written

  void push(const TraceEvent& e) {
    std::lock_guard lock(mu);
    if (events.size() < kRingCapacity) {
      events.push_back(e);
    } else {
      events[next] = e;
      next = (next + 1) % kRingCapacity;
    }
    ++total;
  }
};

struct TraceState {
  std::mutex mu;
  std::vector<std::unique_ptr<RingBuffer>> buffers;
  std::vector<RingBuffer*> free_buffers;
  std::uint32_t next_tid = 0;
  // The stage store: append-only up to kStageCapacity, never wraps.
  std::mutex stage_mu;
  std::vector<TraceEvent> stage_events;
  std::uint64_t stage_dropped = 0;
};

TraceState& state() {
  static TraceState* s = new TraceState();  // leaked: TLS-dtor-safe
  return *s;
}

struct TlsBufferRef {
  RingBuffer* buf = nullptr;
  ~TlsBufferRef() {
    if (!buf) return;
    TraceState& s = state();
    std::lock_guard lock(s.mu);
    s.free_buffers.push_back(buf);
  }
};
thread_local TlsBufferRef t_buf;

RingBuffer& my_buffer() {
  if (t_buf.buf) return *t_buf.buf;
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  if (!s.free_buffers.empty()) {
    t_buf.buf = s.free_buffers.back();
    s.free_buffers.pop_back();
  } else {
    s.buffers.push_back(std::make_unique<RingBuffer>());
    s.buffers.back()->tid = s.next_tid++;
    t_buf.buf = s.buffers.back().get();
  }
  return *t_buf.buf;
}

void append_jsonl_event(std::string& out, const TraceEvent& e) {
  out += "{\"cat\":\"";
  out += e.cat;
  out += "\",\"name\":\"";
  out += e.name;
  out += "\",\"start_ns\":" + std::to_string(e.start_ns);
  out += ",\"dur_ns\":" + std::to_string(e.dur_ns);
  out += ",\"tid\":" + std::to_string(e.tid) + "}\n";
}

}  // namespace

bool tracing_enabled() noexcept {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool on) noexcept {
  if (on) now_ns();  // pin the epoch before the first span
  g_tracing_enabled.store(on, std::memory_order_relaxed);
}

Span::Span(const char* cat, const char* name, SpanStore store) noexcept {
  if (!tracing_enabled()) return;
  cat_ = cat;
  name_ = name;
  start_ns_ = now_ns();
  store_ = store;
}

Span::~Span() {
  if (!cat_) return;
  RingBuffer& buf = my_buffer();
  const TraceEvent e{cat_, name_, start_ns_, now_ns() - start_ns_, buf.tid};
  if (store_ == SpanStore::kRing) {
    buf.push(e);
    return;
  }
  TraceState& s = state();
  std::lock_guard lock(s.stage_mu);
  if (s.stage_events.size() < kStageCapacity)
    s.stage_events.push_back(e);
  else
    ++s.stage_dropped;
}

TraceDump collect_trace() {
  TraceDump dump;
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  for (const auto& b : s.buffers) {
    std::lock_guard buf_lock(b->mu);
    dump.events.insert(dump.events.end(), b->events.begin(), b->events.end());
    dump.dropped += b->total - b->events.size();
  }
  {
    std::lock_guard stage_lock(s.stage_mu);
    dump.events.insert(dump.events.end(), s.stage_events.begin(),
                       s.stage_events.end());
    dump.dropped += s.stage_dropped;
  }
  std::sort(dump.events.begin(), dump.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.tid < b.tid;
            });
  return dump;
}

void reset_trace() {
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  for (const auto& b : s.buffers) {
    std::lock_guard buf_lock(b->mu);
    b->events.clear();
    b->next = 0;
    b->total = 0;
  }
  std::lock_guard stage_lock(s.stage_mu);
  s.stage_events.clear();
  s.stage_dropped = 0;
}

std::string trace_to_chrome_json(const TraceDump& dump) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : dump.events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    out += ",\"cat\":\"";
    out += e.cat;
    out += "\",\"name\":\"";
    out += e.name;
    // Chrome wants µs; fractional µs keeps ns resolution.
    out += "\",\"ts\":" +
           format_double(static_cast<double>(e.start_ns) / 1000.0);
    out += ",\"dur\":" + format_double(static_cast<double>(e.dur_ns) / 1000.0);
    out += "}";
  }
  out += "\n],\"otherData\":{\"dropped_events\":" +
         std::to_string(dump.dropped) + "}}\n";
  return out;
}

std::string trace_to_jsonl(const TraceDump& dump) {
  std::string out;
  for (const TraceEvent& e : dump.events) append_jsonl_event(out, e);
  // Always-present trailer so a grep for dropped_events answers "did
  // the ring wrap?" even when nothing was lost (mirrors the Chrome
  // exporter's otherData field).
  out += "{\"dropped_events\":" + std::to_string(dump.dropped) + "}\n";
  return out;
}

// ---- environment hookup ----

namespace {

struct TraceEnv {
  std::string path;

  TraceEnv() {
    const char* e = std::getenv("AGEO_TRACE");
    if (!e || !*e || std::string_view(e) == "0") return;
    path = e;
    set_tracing_enabled(true);
  }

  // Exported from the destructor, not an atexit callback registered in
  // the constructor — such a callback runs after the object is destroyed
  // and would read a dangling path. The trace state is a leaked
  // singleton, so collect_trace() is still safe here.
  ~TraceEnv() {
    if (path.empty()) return;
    const TraceDump dump = collect_trace();
    detail::write_export(path, trace_to_chrome_json(dump), "trace");
    detail::write_export(path + ".jsonl", trace_to_jsonl(dump), "trace");
  }
};

TraceEnv g_trace_env;

}  // namespace

}  // namespace ageo::obs
