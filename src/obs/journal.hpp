// The verdict provenance journal.
//
// A structured event log answering "why did this proxy get this
// verdict?": which constraints were measured (per-landmark identity and
// delay), which survived the largest-consistent-subset filter, how the
// refine ladder narrowed the region, what the campaign retried/dropped,
// what suspicion evidence accumulated, and the final verdict with its
// region area. Events are appended to thread-sharded ring buffers (the
// metrics-registry pattern, DESIGN.md §10) and merged deterministically
// by a (proxy, seq) sort key, so a threads=N audit journals
// byte-identically to the serial run.
//
// Determinism is scoped per event:
//  - Scope::kVerdict   — facts invariant under every execution schedule
//    (threads, refine levels, memoised vs from-scratch solves). The
//    kVerdict view of a journal is byte-identical across all of them,
//    and between a batch audit and a service bootstrap of one fleet.
//  - Scope::kSchedule  — facts that depend on the refinement schedule
//    (ladder survivor counts) but not on thread count.
//  - Scope::kWall      — wall-clock timings; never compared.
// The seq key is assigned per proxy by the (single) worker that owns it
// in each barrier-separated phase and is *not* serialized, so a
// filtered view is byte-identical to the same filter of a fuller dump.
//
// Like metrics and tracing, journaling never feeds back into algorithm
// state, costs one relaxed load + branch per site when disabled, and
// compiles out entirely under -DAGEO_OBS=OFF (journal_runtime_on() is a
// constant false, so emission blocks fold away; this API itself remains
// so collectors and renderers still compile).
//
// `AGEO_JOURNAL=path` in the environment enables journaling at process
// start and writes the full JSONL dump to `path` at exit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#ifndef AGEO_OBS_ENABLED
#define AGEO_OBS_ENABLED 1
#endif

namespace ageo::obs {

bool journal_enabled() noexcept;
void set_journal_enabled(bool on) noexcept;

/// Guard for emission blocks. Constant false when the observability
/// layer is compiled out, so `if (journal_runtime_on()) { ... }` folds
/// away entirely under -DAGEO_OBS=OFF.
#if AGEO_OBS_ENABLED
inline bool journal_runtime_on() noexcept { return journal_enabled(); }
#else
constexpr bool journal_runtime_on() noexcept { return false; }
#endif

/// Determinism scope of one event (see file comment). Ordered: a view
/// capped at scope S keeps every event with scope <= S.
enum class Scope : std::uint8_t { kVerdict = 0, kSchedule = 1, kWall = 2 };

std::string_view scope_name(Scope s) noexcept;

/// Sentinel "proxy id" for run-level events (suspicion table, drift
/// summary): sorts after every real proxy, serializes as "run".
inline constexpr std::uint64_t kRunEvent = ~static_cast<std::uint64_t>(0);

/// One journal record. `fields` is a pre-serialized JSON fragment
/// (",\"key\":value" per field) built by Event; `seq` orders events
/// within a proxy and is not serialized.
struct JournalEvent {
  std::uint64_t proxy = kRunEvent;
  std::uint32_t seq = 0;
  Scope scope = Scope::kVerdict;
  std::string kind;
  std::string fields;
};

/// Builder for one event. Append fields, then emit():
///
///   obs::Event(proxy, seq++, obs::Scope::kVerdict, "lcs")
///       .num("total", n).num("used", used)
///       .real("agreement", agr).emit();
///
/// Field order is the append order. emit() is a no-op when journaling
/// is disabled (the caller usually guards the whole block with
/// journal_runtime_on() to skip building the strings too).
class Event {
 public:
  Event(std::uint64_t proxy, std::uint32_t seq, Scope scope,
        std::string_view kind);

  Event& num(std::string_view key, std::uint64_t v);
  Event& inum(std::string_view key, std::int64_t v);
  Event& real(std::string_view key, double v);  ///< format_double encoding
  Event& flag(std::string_view key, bool v);
  Event& text(std::string_view key, std::string_view v);  ///< escaped

  void emit();

 private:
  JournalEvent ev_;
};

/// Every buffered event (all threads), sorted by (proxy, seq) with
/// run-level events last, plus how many were lost to ring wraparound.
/// Byte-identical serialization across thread counts requires
/// dropped == 0 (each ring drops its own oldest events).
struct JournalDump {
  std::vector<JournalEvent> events;
  std::uint64_t dropped = 0;
};
JournalDump collect_journal();

/// Discard all buffered events (keeps thread buffers allocated).
void reset_journal();

/// One JSON object per line:
///   {"proxy":17,"kind":"lcs","scope":"verdict","total":12,...}
/// Events with scope > max_scope are skipped; there is deliberately no
/// trailing summary line, so a capped view of one run is byte-identical
/// to the same cap of another run that only differs above the cap.
std::string journal_to_jsonl(const JournalDump& dump,
                             Scope max_scope = Scope::kWall);

/// Parse journal_to_jsonl output back into a dump (rigid format — this
/// reads only what journal_to_jsonl writes). seq is assigned from line
/// order, which preserves the per-proxy order of the serialized dump.
/// Unparseable lines are skipped, including any line with a malformed
/// string escape.
JournalDump parse_journal_jsonl(std::string_view text);

/// Extract one field's raw value from an event: the unquoted text of a
/// string field, or the literal token of a number/bool. nullopt when
/// the key is absent or its string value holds a malformed escape.
std::optional<std::string> journal_field(const JournalEvent& ev,
                                         std::string_view key);

}  // namespace ageo::obs
