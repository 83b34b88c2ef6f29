// Scoped trace spans.
//
// A Span is an RAII marker around a pipeline stage: construction stamps
// a steady_clock start, destruction appends one complete event to the
// calling thread's ring buffer. Categories and names must be string
// literals (the buffer stores the pointers, not copies). Ring buffers
// are fixed-size per thread — when one wraps, the oldest events are
// silently dropped and a drop counter remembers how many.
//
// Stage spans (SpanStore::kStage, AGEO_STAGE_SPAN) mark the few
// once-per-run stages a time ledger is built from: setup, registration,
// eta, country warm-up, bootstrap. They go to one process-wide store
// that never wraps, so a run's per-proxy spans cannot push them out; it
// keeps its first kStageCapacity events and counts any later ones as
// dropped.
//
// Export formats:
//  - Chrome trace_event JSON ("ph":"X" complete events, ts/dur in µs):
//    open in chrome://tracing or https://ui.perfetto.dev.
//  - Flat JSONL, one event object per line, for grep/jq post-mortems.
//
// `AGEO_TRACE=path` in the environment starts tracing at process start
// and writes `path` (Chrome JSON) and `path.jsonl` at exit.
//
// Tracing is wall-clock-only telemetry: spans never feed back into the
// pipeline, and like metrics they cost one relaxed load + branch per
// site when disabled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ageo::obs {

bool tracing_enabled() noexcept;
void set_tracing_enabled(bool on) noexcept;

/// One completed span, as stored in a thread's ring buffer.
struct TraceEvent {
  const char* cat = "";   ///< string literal: subsystem ("audit", "grid"…)
  const char* name = "";  ///< string literal: stage ("proxy", "fuse"…)
  std::uint64_t start_ns = 0;  ///< steady_clock, ns since process start
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< small sequential id, stable per thread
};

/// Where a finished span is kept: the calling thread's ring, or the
/// stage store (see the header comment).
enum class SpanStore : std::uint8_t { kRing, kStage };

/// Events the stage store keeps before it counts the rest as dropped.
inline constexpr std::size_t kStageCapacity = 4096;

/// RAII span. Does nothing (not even a clock read) when tracing is off
/// at construction; a span open across an enable/disable toggle records
/// iff tracing was on when it opened.
class Span {
 public:
  Span(const char* cat, const char* name,
       SpanStore store = SpanStore::kRing) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* cat_ = nullptr;  ///< nullptr ⇒ disarmed
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  SpanStore store_ = SpanStore::kRing;
};

/// Copy every buffered event out (all threads' rings and the stage
/// store, start-time order) and how many were dropped to ring
/// wraparound or a full stage store. Thread-safe.
struct TraceDump {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};
TraceDump collect_trace();

/// Serialize a dump: Chrome trace_event JSON / flat JSONL. Both surface
/// the drop counter — Chrome JSON in otherData.dropped_events, JSONL as
/// an always-present final {"dropped_events":N} line.
std::string trace_to_chrome_json(const TraceDump& dump);
std::string trace_to_jsonl(const TraceDump& dump);

/// Discard all buffered events (keeps thread buffers allocated).
void reset_trace();

}  // namespace ageo::obs
