// Epoch snapshots of the always-on audit service.
//
// A snapshot captures everything the service cannot re-derive: the
// epoch counter, the fleet-wide eta estimate, each entry's observation
// list with its probe cursors and health/history, and the pending-solve
// FIFO. Everything else — prediction regions, verdicts, solver memos —
// is a deterministic function of the observations under the service's
// config, so restore() rebuilds it by re-solving instead of trusting
// serialized bits. The text format round-trips doubles exactly
// (obs::format_double <-> strtod), so a restored service continues
// bit-identically to the run it snapshotted.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "measure/proxy_measure.hpp"

namespace ageo::serve {

struct ObservationSnapshot {
  std::size_t landmark_id = 0;
  double one_way_delay_ms = 0.0;
};

struct EntrySnapshot {
  std::size_t id = 0;
  std::int64_t last_solve_epoch = -1;
  std::uint32_t probe_failures = 0;
  std::uint32_t tunnel_drops = 0;
  std::uint32_t jseq = 0;
  double tunnel_rtt_ms = 0.0;
  std::uint8_t continent = 0;
  std::size_t pool_cursor = 0;
  std::size_t refresh_cursor = 0;
  bool needs_full = false;
  bool queued = false;
  /// Verdict history, oldest first, as assess::Verdict values.
  std::vector<std::uint8_t> history;
  std::vector<ObservationSnapshot> observations;
};

struct EpochSnapshot {
  std::uint64_t epoch = 0;
  measure::EtaEstimate eta;
  /// Active entries, ascending by id (restore re-registers their
  /// network hosts in this order, which must match the bootstrap
  /// registration order for the simulated network to deal identical
  /// streams).
  std::vector<EntrySnapshot> entries;
  /// Pending-solve FIFO, front first.
  std::vector<std::size_t> pending;
};

/// Serialize to the line-oriented text format (see snapshot.cpp header
/// comment for the grammar).
std::string snapshot_to_text(const EpochSnapshot& s);

/// Parse snapshot_to_text output. Throws ageo::Error on malformed input
/// (bad magic, truncated sections, unparseable or out-of-range numbers).
/// Field values are range-checked here only as far as their types go;
/// AuditService::restore checks them against the service.
EpochSnapshot parse_snapshot_text(std::string_view text);

}  // namespace ageo::serve
