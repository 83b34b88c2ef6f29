// The always-on audit service (DESIGN.md §15).
//
// A long-lived owner of a proxy pool, fed by streaming probe
// rounds instead of one-shot batch audits. Lifecycle:
//
//   admit(fleet)   — metadata into the pool; nothing touches the network
//   bootstrap()    — the batch audit's two passes, run by the service's
//                    own assess::Auditor: the campaign pass (keeping
//                    each proxy's prober) and the solve pass (capturing
//                    a solver memo per proxy), so bootstrap rows are
//                    Auditor::run's rows
//   run_round()*N  — the streaming steady state: a staleness x verdict-
//                    confidence scheduler picks proxies, each probes a
//                    few more continent landmarks through its tunnel,
//                    and the solver phase folds the new observations
//                    into the cached memo (CBG++: one more disk per
//                    observation; Spotter: one more ring) — full
//                    re-solves only when the memoised fast path breaks
//   report()       — batch-shaped rows plus service counters
//
// The perf contract: an incremental per-observation update is O(disk
// rasterization), not O(all constraints), and is bit-identical to a
// full locate() on the same observation list — verified continuously by
// the serve tests and the bench_service A/B gate.
//
// Backpressure: when the probe stream outruns the solver (pending FIFO
// at max_pending), probing pauses — rounds drain solver_budget solves
// until the queue recedes, so memory stays bounded and verdict latency
// degrades gracefully instead of queues growing without limit.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "assess/audit.hpp"
#include "serve/pool.hpp"
#include "serve/snapshot.hpp"

namespace ageo::serve {

struct ServiceConfig {
  /// Configuration of the assess::Auditor whose passes the service runs
  /// (grid, algorithm, campaign policies, Byzantine thresholds,
  /// threads). use_as_grouping is ignored: AS//24 grouping is a join
  /// over a whole batch report.
  assess::AuditConfig audit;

  /// Verdicts retained per proxy (ring).
  std::size_t verdict_history = 8;

  // --- streaming rounds ---
  /// Proxies the scheduler picks per round.
  std::size_t round_quota = 8;
  /// Landmarks probed per picked proxy per round.
  int probes_per_round = 4;
  /// Probe attempts per landmark (minimum kept); 0 = inherit
  /// audit.two_phase.attempts.
  int probe_attempts = 0;
  /// Solves drained from the pending FIFO per round.
  std::size_t solver_budget = 16;
  /// Probing pauses while the pending FIFO holds at least this many
  /// entries (backpressure).
  std::size_t max_pending = 64;
  SchedulerWeights weights;

  /// audit.validate(), then the service's own rules: verdict_history,
  /// round_quota, probes_per_round, solver_budget and max_pending >= 1,
  /// probe_attempts >= 0, and finite scheduler weights (a NaN weight
  /// makes its verdict class's scores NaN, and ProxyPool::rank's
  /// comparators lose strict weak ordering). Throws InvalidArgument
  /// naming the field; returns *this so a constructor can validate in
  /// its first member initializer.
  const ServiceConfig& validate() const;
};

/// Cumulative service counters (also exported as serve.* metrics; this
/// struct is the deterministic fold, thread-count invariant).
struct ServiceStats {
  std::uint64_t rounds = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t observations_appended = 0;
  std::uint64_t observations_refreshed = 0;
  std::uint64_t incremental_updates = 0;
  std::uint64_t full_resolves = 0;
  std::uint64_t memo_fallbacks = 0;
  std::uint64_t solves = 0;
  std::uint64_t verdict_changes = 0;
  std::uint64_t deferred_picks = 0;
  std::uint64_t reconnects = 0;
};

/// The batch report, one row per ACTIVE pool entry in ascending id
/// order, plus the service's epoch and counters. verdict_final ==
/// verdict_dc: the service assesses per proxy, and cross-proxy AS
/// grouping is a batch-only join (DESIGN.md §15). The suspicion and
/// drift ledgers fold every proxy's latest solve, not a running mixture
/// of epochs.
struct ServiceReport : assess::AuditReport {
  std::uint64_t epoch = 0;
  ServiceStats stats;
};

class AuditService {
 public:
  /// Throws InvalidArgument when `config` fails ServiceConfig::validate,
  /// before anything is built.
  AuditService(measure::Testbed& bed, ServiceConfig config = {});

  /// Admit every fleet host into the pool (metadata only). Host i gets
  /// pool id base + i where base is the count already admitted.
  /// Returns the number admitted.
  std::size_t admit(const world::Fleet& fleet);

  /// Register tunnels and run the batch-shaped initial audit for the
  /// first min(limit, size) admitted entries, in id order. Epoch 0.
  void bootstrap(std::size_t limit = static_cast<std::size_t>(-1));

  /// One streaming round: schedule, probe, solve, assess. Epochs count
  /// from 1 (bootstrap is epoch 0).
  void run_round();
  void run_rounds(std::uint64_t n);

  ServiceReport report();

  /// Serialize the resumable core (see snapshot.hpp).
  EpochSnapshot snapshot() const;
  /// Resume from a snapshot onto a service that has admit()ed the same
  /// fleet but NOT bootstrapped: tunnels are re-registered in id order
  /// (matching bootstrap's registration order), observations and
  /// cursors restored, and every entry re-solved to rebuild regions,
  /// verdicts, and solver memos. Probers resume the snapshotted tunnel
  /// RTT estimate, so subsequent corrected measurements — and therefore
  /// all future rounds — are bit-identical to the run that snapshotted.
  /// The snapshot is untrusted input: it is checked in full first, and
  /// a bad one throws ageo::Error with the service untouched.
  void restore(const EpochSnapshot& snap);

  const ProxyPool& pool() const noexcept { return pool_; }
  ProxyPool& pool() noexcept { return pool_; }
  std::uint64_t epoch() const noexcept { return epoch_; }
  const ServiceStats& stats() const noexcept { return stats_; }
  const ServiceConfig& config() const noexcept { return config_; }
  const grid::Grid& grid() const noexcept { return auditor_.grid(); }
  const measure::EtaEstimate& eta() const noexcept { return eta_; }
  std::size_t pending() const noexcept { return pending_.size(); }
  bool bootstrapped() const noexcept { return bootstrapped_; }

 private:
  struct SolveOutcome {
    bool solved = false;
    bool incremental = false;
    bool fell_back = false;
    bool verdict_changed = false;
    double solve_us = 0.0;
  };
  /// Per-entry probe-phase tally, folded serially in pick order so
  /// ServiceStats stays thread-count invariant.
  struct ProbeTally {
    std::uint64_t probes = 0;
    std::uint64_t failures = 0;
    std::uint64_t appended = 0;
    std::uint64_t refreshed = 0;
    std::uint64_t reconnects = 0;
  };

  ServiceConfig config_;  // first: validated before any member is built
  measure::Testbed* bed_;
  /// Runs both per-proxy passes and owns the grid, mask, country caches,
  /// plan cache, geolocator and refine context.
  assess::Auditor auditor_;

  ProxyPool pool_;
  std::optional<netsim::HostId> client_;
  measure::EtaEstimate eta_;
  std::uint64_t epoch_ = 0;
  bool bootstrapped_ = false;
  ServiceStats stats_;
  std::deque<std::size_t> pending_;
  std::uint32_t run_jseq_ = 0;

  /// Register the proxy host + tunnel session for one admitted entry
  /// (serial, id order — network registration order is part of the
  /// deterministic contract).
  void open_tunnel(ProxyEntry& e);
  /// The Auditor pass slots of these active entries: their rows,
  /// tunnels, probers and memos, and their journal cursors when
  /// `journal`.
  std::vector<assess::Auditor::ProxySlot> slots_of(
      std::span<const std::size_t> ids, bool journal);
  /// Probe one scheduled entry for this round (own lane, own cursors).
  ProbeTally probe_entry(ProxyEntry& e, netsim::Lane& lane);
  /// Streaming re-solve of one entry: an incremental memo update when
  /// the memo can absorb the appended observations, then the Auditor's
  /// row fill and assessment; otherwise the Auditor's full solve_row,
  /// capturing a fresh memo. Returns what happened for the serial stats
  /// fold.
  SolveOutcome solve_entry(ProxyEntry& e);
  /// Throw unless `snap` can be restored onto this service as is.
  void check_snapshot(const EpochSnapshot& snap) const;
};

}  // namespace ageo::serve
