// Proxy pool for the always-on audit service.
//
// The service tracks up to millions of proxies, but at any moment only a
// scheduled handful is being probed or re-solved. The pool therefore
// splits each proxy in two: a small always-resident ProxyEntry (identity,
// claim metadata, health counters, verdict history, staleness) in one
// vector indexed by id, and a heap-allocated ActiveState (tunnel
// session, observation list, cached solver memo, latest verdict row)
// attached only once the proxy has been bootstrapped. Scheduler sweeps
// touch nothing but the cold entries, so ranking a million-entry pool is
// a pure metadata scan.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "algos/geolocator.hpp"
#include "assess/audit.hpp"
#include "measure/proxy_measure.hpp"
#include "netsim/proxy.hpp"
#include "world/continent.hpp"
#include "world/fleet.hpp"

namespace ageo::serve {

/// Lifecycle of one pool entry. kEmpty marks a never-admitted id below
/// the largest admitted one; kAdmitted entries carry metadata only;
/// kActive entries own an ActiveState; kRetired entries are kept for
/// their history but never scheduled again.
enum class EntryStatus : std::uint8_t {
  kEmpty = 0,
  kAdmitted = 1,
  kActive = 2,
  kRetired = 3,
};

/// Fixed-capacity ring of the most recent verdicts, oldest first.
/// Storage is allocated lazily on the first push so a million admitted-
/// but-never-audited entries cost nothing beyond the ring header.
class VerdictRing {
 public:
  VerdictRing() = default;
  explicit VerdictRing(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  void push(assess::Verdict v);
  /// i-th stored verdict, oldest first; i < size().
  assess::Verdict at(std::size_t i) const noexcept;
  /// Most recent verdict; nullopt while empty.
  std::optional<assess::Verdict> latest() const noexcept;

 private:
  std::vector<std::uint8_t> slots_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  ///< index of the oldest stored verdict
  std::size_t n_ = 0;
};

/// Hot per-proxy state, attached once the proxy is bootstrapped. Heap-
/// allocated behind the entry and never moved, so the prober's pointer
/// into `session` stays valid for the service's lifetime.
struct ActiveState {
  explicit ActiveState(netsim::ProxySession s) : session(std::move(s)) {}

  netsim::ProxySession session;
  std::optional<measure::ProxyProber> prober;

  /// Continent the bootstrap two-phase scan settled on; fixes the
  /// streaming probe pool below.
  world::Continent continent = world::Continent::kEurope;
  /// Landmark ids on `continent`, ascending — exactly the population
  /// phase 2 sampled from (measure::continent_landmarks).
  std::vector<std::size_t> probe_pool;
  /// Next probe_pool index to try for a first-time measurement.
  std::size_t pool_cursor = 0;
  /// Rotates over `observations` once the pool is exhausted: the next
  /// observation whose landmark gets re-measured (staleness refresh).
  std::size_t refresh_cursor = 0;
  /// Per-landmark "already observed" flags, indexed by landmark id.
  std::vector<bool> observed;

  /// The proxy's full observation list, append-ordered. The prefix
  /// [0, memo_solved) is covered by `memo`.
  std::vector<algos::Observation> observations;
  std::unique_ptr<algos::LocatorMemo> memo;
  std::size_t memo_solved = 0;
  /// An in-place refresh replaced a delay inside the solved prefix, so
  /// the memo is spent and the next solve must be full.
  bool needs_full = false;
  /// Entry currently sits in the service's pending-solve FIFO.
  bool queued = false;

  /// Latest pipeline outputs (region, verdicts, diagnostics), in the
  /// same shape the batch Auditor emits so report consumers are shared.
  assess::ProxyAuditRow row;
  /// Journal sequence cursor for this proxy's event stream.
  std::uint32_t jseq = 0;
};

struct ProxyEntry {
  std::size_t id = 0;  ///< == fleet host index
  world::ProxyHost host;
  EntryStatus status = EntryStatus::kEmpty;
  /// Epoch of the last completed solve; -1 = never solved. Bootstrap is
  /// epoch 0, streaming rounds count from 1.
  std::int64_t last_solve_epoch = -1;
  /// Consecutive failed probe attempts (reset on any success).
  std::uint32_t probe_failures = 0;
  std::uint32_t tunnel_drops = 0;
  VerdictRing history;
  std::unique_ptr<ActiveState> state;
};

/// Re-audit priority weights: how urgently each verdict class goes
/// stale. score = weight(latest verdict) * (epoch - last_solve_epoch);
/// uncertain verdicts age fastest (they are one observation away from
/// resolution), false verdicts faster than credible ones (the paper's
/// liars re-surface under new names, §6).
struct SchedulerWeights {
  double credible = 1.0;
  double uncertain = 3.0;
  double false_ = 2.0;

  double of(std::optional<assess::Verdict> v) const noexcept {
    if (!v) return uncertain;  // never audited == maximally unknown
    switch (*v) {
      case assess::Verdict::kCredible: return credible;
      case assess::Verdict::kFalse: return false_;
      case assess::Verdict::kUncertain: break;
    }
    return uncertain;
  }
};

class ProxyPool {
 public:
  std::size_t size() const noexcept { return size_; }

  /// Admit one proxy (metadata only). Ids must be unique. Returns the
  /// resident entry; a reference stays valid until the next admit.
  ProxyEntry& admit(std::size_t id, const world::ProxyHost& host,
                    std::size_t history_capacity);

  ProxyEntry* find(std::size_t id) noexcept;
  const ProxyEntry* find(std::size_t id) const noexcept;

  /// Visit every resident entry in ascending id order.
  template <typename F>
  void for_each(F&& f) {
    for (ProxyEntry& e : entries_)
      if (e.status != EntryStatus::kEmpty) f(e);
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const ProxyEntry& e : entries_)
      if (e.status != EntryStatus::kEmpty) f(e);
  }

  /// The re-audit schedule: ids of the up-to-`quota` highest-scoring
  /// entries, score-descending with ascending-id tie-break. Entries
  /// solved this epoch score zero and are never returned; retired and
  /// empty slots are skipped; admitted-but-inactive entries join only
  /// when `include_admitted` (they rank as never-solved unknowns). Pure
  /// metadata scan — O(size) time, O(quota) space.
  std::vector<std::size_t> rank(const SchedulerWeights& w,
                                std::uint64_t epoch, std::size_t quota,
                                bool include_admitted) const;

 private:
  /// Entry `id` at index `id`; never-admitted ids below the largest
  /// admitted one are kEmpty.
  std::vector<ProxyEntry> entries_;
  std::size_t size_ = 0;
};

}  // namespace ageo::serve
