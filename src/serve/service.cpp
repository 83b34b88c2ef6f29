#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/journal.hpp"
#include "obs/obs.hpp"

namespace ageo::serve {

namespace {

/// Fresh network lane per (entry, epoch): each streaming round draws
/// from its own stream, so a round's measurements depend only on
/// (config seed, entry id, epoch) — never on which other entries were
/// scheduled, in what order, or on how many worker threads ran them.
/// Restore determinism hangs on this: a resumed service regenerates the
/// exact lane a continued original would have used. Streaming epochs
/// count from 1; bootstrap (epoch 0) runs the Auditor's campaign pass,
/// whose lane seed proxy_seed(seed, id) is this function at epoch 0.
std::uint64_t round_lane_seed(std::uint64_t seed, std::size_t id,
                              std::uint64_t epoch) {
  return assess::proxy_seed(seed, id) + epoch * 0xd1b54a32d192ed03ULL;
}

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const ServiceConfig& ServiceConfig::validate() const {
  audit.validate();
  detail::require(verdict_history > 0,
                  "ServiceConfig: verdict_history must be >= 1");
  detail::require(round_quota > 0, "ServiceConfig: round_quota must be >= 1");
  detail::require(probes_per_round > 0,
                  "ServiceConfig: probes_per_round must be >= 1");
  detail::require(probe_attempts >= 0,
                  "ServiceConfig: probe_attempts must be >= 0");
  detail::require(solver_budget > 0,
                  "ServiceConfig: solver_budget must be >= 1");
  detail::require(max_pending > 0, "ServiceConfig: max_pending must be >= 1");
  detail::require(std::isfinite(weights.credible),
                  "ServiceConfig: weights.credible must be finite");
  detail::require(std::isfinite(weights.uncertain),
                  "ServiceConfig: weights.uncertain must be finite");
  detail::require(std::isfinite(weights.false_),
                  "ServiceConfig: weights.false_ must be finite");
  return *this;
}

AuditService::AuditService(measure::Testbed& bed, ServiceConfig config)
    : config_(config.validate()),
      bed_(&bed),
      auditor_(bed, config.audit) {}

void AuditService::open_tunnel(ProxyEntry& e) {
  detail::require(e.state == nullptr,
                  "AuditService::open_tunnel: tunnel already open");
  // Client first, as the batch Auditor registers it: the simulated
  // network deals host ids (and their per-host RNG streams) in
  // registration order, and bootstrap bit-identity depends on dealing
  // the same ids.
  if (!client_) client_ = auditor_.register_client();
  e.state = std::make_unique<ActiveState>(
      auditor_.open_tunnel(*client_, e.host));
  e.state->row = auditor_.new_row(e.id, e.host);
}

std::vector<assess::Auditor::ProxySlot> AuditService::slots_of(
    std::span<const std::size_t> ids, bool journal) {
  std::vector<assess::Auditor::ProxySlot> slots(ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    ActiveState& st = *pool_.find(ids[k])->state;
    slots[k].row = &st.row;
    slots[k].session = &st.session;
    slots[k].prober = &st.prober;
    slots[k].memo = &st.memo;
    if (journal) slots[k].jseq = &st.jseq;
  }
  return slots;
}

std::size_t AuditService::admit(const world::Fleet& fleet) {
  AGEO_SPAN("serve", "admit");
  const std::size_t base = pool_.size();
  for (std::size_t i = 0; i < fleet.hosts.size(); ++i)
    pool_.admit(base + i, fleet.hosts[i], config_.verdict_history);
  AGEO_GAUGE_SET("serve.pool.size", static_cast<double>(pool_.size()));
  return fleet.hosts.size();
}

void AuditService::bootstrap(std::size_t limit) {
  AGEO_STAGE_SPAN("serve", "bootstrap");
  AGEO_COUNT("serve.bootstraps");

  // Activation list: admitted entries in id order, truncated to limit.
  std::vector<std::size_t> ids;
  pool_.for_each([&](ProxyEntry& e) {
    if (e.status == EntryStatus::kAdmitted && ids.size() < limit)
      ids.push_back(e.id);
  });
  if (ids.empty()) {
    bootstrapped_ = true;
    return;
  }

  // Serial prologue: network registration in id order (the simulated
  // network deals host ids and streams in registration order, so this
  // order is part of the deterministic contract shared with restore()).
  for (std::size_t id : ids) open_tunnel(*pool_.find(id));

  // Fleet-wide eta from the pingable minority, once per service life.
  if (!bootstrapped_) {
    std::vector<netsim::ProxySession> sessions;
    sessions.reserve(ids.size());
    for (std::size_t id : ids)
      sessions.push_back(pool_.find(id)->state->session);
    AGEO_STAGE_SPAN("serve", "bootstrap.estimate_eta");
    eta_ = measure::estimate_eta(sessions, config_.audit.eta_samples,
                                 config_.audit.threads);
    AGEO_GAUGE_SET("serve.eta", eta_.eta);
  }

  AGEO_GAUGE_SET("serve.plan_cache_capacity",
                 static_cast<double>(auditor_.plan_cache().capacity()));

  // The batch audit's two passes, with the entries' prober and memo
  // slots: the prober stays with the entry (the streaming rounds keep
  // measuring through it) and every solve captures a memo.
  const bool journal = obs::journal_runtime_on();
  std::vector<assess::Auditor::ProxySlot> slots = slots_of(ids, journal);
  auditor_.campaign_pass(slots, eta_.eta);
  auditor_.solve_pass(slots);

  std::size_t solved = 0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    ProxyEntry& e = *pool_.find(ids[k]);
    ActiveState& st = *e.state;
    if (journal) auditor_.journal_verdict(st.row, st.jseq);
    st.continent = slots[k].continent;
    st.probe_pool = measure::continent_landmarks(*bed_, st.continent);
    st.observations = st.row.observations;
    st.memo_solved = st.observations.size();
    st.observed.assign(bed_->landmarks().size(), false);
    for (const auto& ob : st.observations) st.observed[ob.landmark_id] = true;
    e.history.push(st.row.verdict_final);
    e.last_solve_epoch = 0;
    e.status = EntryStatus::kActive;
    solved += !st.observations.empty();
  }
  stats_.solves += ids.size();
  stats_.full_resolves += solved;
  AGEO_COUNTER_ADD("serve.bootstrap.proxies", ids.size());
  AGEO_COUNTER_ADD("serve.full_resolves", solved);
  std::size_t active = 0;
  pool_.for_each(
      [&](ProxyEntry& e) { active += e.status == EntryStatus::kActive; });
  AGEO_GAUGE_SET("serve.pool.active", static_cast<double>(active));
  bootstrapped_ = true;
}

AuditService::ProbeTally AuditService::probe_entry(ProxyEntry& e,
                                                   netsim::Lane& lane) {
  AGEO_SPAN("serve", "round.probe");
  ProbeTally tally;
  ActiveState& st = *e.state;
  st.session.set_lane(&lane);
  const int attempts = config_.probe_attempts > 0
                           ? config_.probe_attempts
                           : std::max(1, config_.audit.two_phase.attempts);
  if (!st.session.alive()) {
    ++e.tunnel_drops;
    AGEO_COUNT("serve.tunnel_drops");
    if (!st.session.reconnect()) {
      ++e.probe_failures;
      st.session.set_lane(nullptr);
      return tally;
    }
    ++tally.reconnects;
    AGEO_COUNT("serve.reconnects");
  }
  for (int k = 0; k < config_.probes_per_round; ++k) {
    // Next landmark: first-time measurements walk the continent pool in
    // ascending id order; once exhausted, rotate a staleness refresh
    // over the existing observations.
    std::size_t lm = static_cast<std::size_t>(-1);
    std::size_t slot = 0;
    bool refresh = false;
    while (st.pool_cursor < st.probe_pool.size()) {
      const std::size_t cand = st.probe_pool[st.pool_cursor];
      if (st.observed[cand]) {
        ++st.pool_cursor;
        continue;
      }
      lm = cand;
      break;
    }
    if (lm == static_cast<std::size_t>(-1)) {
      if (st.observations.empty()) break;
      slot = st.refresh_cursor % st.observations.size();
      st.refresh_cursor = (slot + 1) % st.observations.size();
      lm = st.observations[slot].landmark_id;
      refresh = true;
    }
    std::optional<double> best;
    for (int a = 0; a < attempts; ++a) {
      auto m = (*st.prober)(lm);
      ++tally.probes;
      AGEO_COUNT("serve.probes");
      if (m && (!best || *m < *best)) best = m;
    }
    bed_->net().advance_round(1, &lane);
    if (!best) {
      ++e.probe_failures;
      ++tally.failures;
      AGEO_COUNT("serve.probe_failures");
      if (!refresh) break;  // retry the same unmeasured landmark next round
      continue;
    }
    e.probe_failures = 0;
    if (refresh) {
      st.observations[slot].one_way_delay_ms = *best / 2.0;
      // The replacement edited the solved prefix: the memo's cached
      // regions were built from the old delay, so the next solve must
      // rebuild from scratch.
      if (slot < st.memo_solved) st.needs_full = true;
      ++tally.refreshed;
      AGEO_COUNT("serve.observations_refreshed");
    } else {
      st.observations.push_back(
          {lm, bed_->landmarks()[lm].location, *best / 2.0});
      st.observed[lm] = true;
      ++st.pool_cursor;
      ++tally.appended;
      AGEO_COUNT("serve.observations_appended");
    }
  }
  st.session.set_lane(nullptr);
  return tally;
}

AuditService::SolveOutcome AuditService::solve_entry(ProxyEntry& e) {
  AGEO_SPAN("serve", "round.solve");
  SolveOutcome out;
  ActiveState& st = *e.state;
  st.queued = false;
  if (st.observations.empty()) return out;
  std::chrono::steady_clock::time_point t0;
  const bool timing = obs::metrics_enabled() || obs::journal_runtime_on();
  if (timing) t0 = std::chrono::steady_clock::now();

  const std::optional<assess::Verdict> prev = e.history.latest();
  st.row.observations = st.observations;
  if (st.memo && !st.needs_full && st.observations.size() > st.memo_solved) {
    algos::GeoEstimate est;
    out.incremental = auditor_.locator().locate_update(
        *st.memo, auditor_.grid(), bed_->store(), st.observations,
        st.memo_solved, &auditor_.plausibility_mask(), est);
    out.fell_back = !out.incremental;
    if (out.incremental)
      auditor_.fill_and_assess(st.row, std::move(est), nullptr);
  }
  // A refresh that edited the solved prefix is absorbed by a full solve,
  // so the flag is consumed either way.
  if (!out.incremental) auditor_.solve_row(st.row, &st.memo, nullptr);
  st.memo_solved = st.observations.size();
  st.needs_full = false;
  const assess::ProxyAuditRow& row = st.row;
  out.verdict_changed = prev && *prev != row.verdict_final;
  e.history.push(row.verdict_final);
  e.last_solve_epoch = static_cast<std::int64_t>(epoch_);
  out.solved = true;
  if (timing) out.solve_us = elapsed_us(t0);

  if (obs::journal_runtime_on()) {
    obs::Event(e.id, st.jseq++, obs::Scope::kVerdict, "reaudit")
        .num("epoch", epoch_)
        .num("observations", st.observations.size())
        .num("total", row.constraints_total)
        .num("used", row.constraints_used)
        .flag("incremental", out.incremental)
        .flag("fallback", out.fell_back)
        .text("verdict", assess::to_string(row.verdict_final))
        .flag("changed", out.verdict_changed)
        .real("area_km2", row.area_km2)
        .emit();
  }
  return out;
}

void AuditService::run_round() {
  detail::require(bootstrapped_,
                  "AuditService::run_round: bootstrap() first");
  AGEO_SPAN("serve", "round");
  AGEO_COUNT("serve.rounds");
  ++epoch_;
  ++stats_.rounds;
  std::chrono::steady_clock::time_point t0;
  const bool timing = obs::metrics_enabled();
  if (timing) t0 = std::chrono::steady_clock::now();

  // Schedule. Backpressure: while the solver queue is saturated, no new
  // probe work is admitted — rounds become pure solver drains until the
  // FIFO recedes below max_pending.
  std::vector<std::size_t> picks;
  if (pending_.size() >= config_.max_pending) {
    stats_.deferred_picks += config_.round_quota;
    AGEO_COUNTER_ADD("serve.backpressure_deferred", config_.round_quota);
  } else {
    picks = pool_.rank(config_.weights, epoch_, config_.round_quota, false);
  }

  // Probe phase: each picked entry measures through its own fresh
  // (entry, epoch) lane; entries are disjoint, so any thread count
  // yields the same observations.
  std::vector<netsim::Lane> lanes;
  lanes.reserve(picks.size());
  for (std::size_t id : picks)
    lanes.push_back(bed_->net().make_lane(
        round_lane_seed(config_.audit.seed, id, epoch_)));
  std::vector<ProbeTally> tallies(picks.size());
  parallel_for(picks.size(), config_.audit.threads, [&](std::size_t k) {
    tallies[k] = probe_entry(*pool_.find(picks[k]), lanes[k]);
  });
  for (const ProbeTally& t : tallies) {
    stats_.probes += t.probes;
    stats_.probe_failures += t.failures;
    stats_.observations_appended += t.appended;
    stats_.observations_refreshed += t.refreshed;
    stats_.reconnects += t.reconnects;
  }

  // Enqueue solve jobs in pick order (deterministic FIFO).
  for (std::size_t id : picks) {
    ProxyEntry& e = *pool_.find(id);
    ActiveState& st = *e.state;
    const bool dirty = st.needs_full || st.observations.size() > st.memo_solved;
    if (dirty && !st.queued) {
      st.queued = true;
      pending_.push_back(id);
    }
  }

  // Solve phase: drain up to solver_budget jobs, oldest first. Each job
  // touches only its own entry, so the fold below is the only ordered
  // step.
  const std::size_t drain =
      std::min<std::size_t>(config_.solver_budget, pending_.size());
  std::vector<std::size_t> jobs(pending_.begin(),
                                pending_.begin() +
                                    static_cast<std::ptrdiff_t>(drain));
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(drain));
  std::vector<SolveOutcome> outcomes(jobs.size());
  parallel_for(jobs.size(), config_.audit.threads, [&](std::size_t k) {
    outcomes[k] = solve_entry(*pool_.find(jobs[k]));
  });

  // Serial fold: stats and wall-clock telemetry in job order.
  for (const SolveOutcome& o : outcomes) {
    if (!o.solved) continue;
    ++stats_.solves;
    if (o.incremental) {
      ++stats_.incremental_updates;
      AGEO_COUNT("serve.incremental_updates");
    } else {
      ++stats_.full_resolves;
      AGEO_COUNT("serve.full_resolves");
    }
    if (o.fell_back) {
      ++stats_.memo_fallbacks;
      AGEO_COUNT("serve.memo_fallbacks");
    }
    if (o.verdict_changed) {
      ++stats_.verdict_changes;
      AGEO_COUNT("serve.verdict_changes");
    }
    AGEO_HIST_WALL("serve.verdict_latency_us", o.solve_us, 1.0, 1e8);
  }
  AGEO_GAUGE_SET("serve.pending", static_cast<double>(pending_.size()));
  AGEO_GAUGE_SET("serve.epoch", static_cast<double>(epoch_));
  if (timing) AGEO_HIST_WALL("serve.round_us", elapsed_us(t0), 10.0, 1e9);

  if (obs::journal_runtime_on()) {
    obs::Event(obs::kRunEvent, run_jseq_++, obs::Scope::kSchedule, "round")
        .num("epoch", epoch_)
        .num("picked", picks.size())
        .num("solved", jobs.size())
        .num("pending", pending_.size())
        .emit();
  }
}

void AuditService::run_rounds(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) run_round();
}

ServiceReport AuditService::report() {
  AGEO_SPAN("serve", "report");
  ServiceReport r;
  r.eta = eta_;
  r.epoch = epoch_;
  r.stats = stats_;
  pool_.for_each([&](ProxyEntry& e) {
    if (e.status == EntryStatus::kActive) r.rows.push_back(e.state->row);
  });
  auditor_.summarize(r);
  if (obs::metrics_enabled())
    r.telemetry = obs::Registry::global().snapshot();

  if (obs::journal_runtime_on()) {
    const assess::VerdictTally tally = assess::tally_verdicts(r.rows);
    obs::Event(obs::kRunEvent, run_jseq_++, obs::Scope::kVerdict,
               "serve_summary")
        .num("epoch", epoch_)
        .num("proxies", r.rows.size())
        .num("credible", tally.credible)
        .num("uncertain", tally.uncertain)
        .num("false", tally.false_)
        .num("incremental_updates", stats_.incremental_updates)
        .num("full_resolves", stats_.full_resolves)
        .num("suspicious_landmarks", r.suspicious_landmarks.size())
        .emit();
  }
  return r;
}

EpochSnapshot AuditService::snapshot() const {
  AGEO_SPAN("serve", "snapshot");
  AGEO_COUNT("serve.snapshots");
  EpochSnapshot s;
  s.epoch = epoch_;
  s.eta = eta_;
  pool_.for_each([&](const ProxyEntry& e) {
    if (e.status != EntryStatus::kActive) return;
    const ActiveState& st = *e.state;
    EntrySnapshot es;
    es.id = e.id;
    es.last_solve_epoch = e.last_solve_epoch;
    es.probe_failures = e.probe_failures;
    es.tunnel_drops = e.tunnel_drops;
    es.jseq = st.jseq;
    es.tunnel_rtt_ms = st.prober ? st.prober->tunnel_rtt_ms() : 0.0;
    es.continent = static_cast<std::uint8_t>(st.continent);
    es.pool_cursor = st.pool_cursor;
    es.refresh_cursor = st.refresh_cursor;
    es.needs_full = st.needs_full;
    es.queued = st.queued;
    es.history.reserve(e.history.size());
    for (std::size_t i = 0; i < e.history.size(); ++i)
      es.history.push_back(static_cast<std::uint8_t>(e.history.at(i)));
    es.observations.reserve(st.observations.size());
    for (const auto& ob : st.observations)
      es.observations.push_back({ob.landmark_id, ob.one_way_delay_ms});
    s.entries.push_back(std::move(es));
  });
  s.pending.assign(pending_.begin(), pending_.end());
  return s;
}

void AuditService::check_snapshot(const EpochSnapshot& snap) const {
  // The probers' own precondition, checked here so no entry is half
  // resumed when it fails.
  detail::require(snap.eta.eta > 0.0 && snap.eta.eta < 1.0,
                  "AuditService::restore: eta must lie in (0, 1)");
  std::array<std::size_t, world::kContinentCount> pool_size{};
  for (std::size_t c = 0; c < pool_size.size(); ++c)
    pool_size[c] = measure::continent_landmarks(
                       *bed_, static_cast<world::Continent>(c))
                       .size();
  const std::size_t n_landmarks = bed_->landmarks().size();
  std::vector<std::size_t> ids;
  ids.reserve(snap.entries.size());
  for (const EntrySnapshot& es : snap.entries) {
    detail::require(ids.empty() || es.id > ids.back(),
                    "AuditService::restore: entries must ascend by id");
    const ProxyEntry* e = pool_.find(es.id);
    detail::require(e != nullptr && e->status == EntryStatus::kAdmitted,
                    "AuditService::restore: snapshot entry not admitted");
    detail::require(es.continent < world::kContinentCount,
                    "AuditService::restore: bad continent");
    detail::require(es.pool_cursor <= pool_size[es.continent],
                    "AuditService::restore: pool cursor past the probe pool");
    detail::require(
        es.refresh_cursor < std::max<std::size_t>(1, es.observations.size()),
        "AuditService::restore: refresh cursor past the observations");
    detail::require(std::isfinite(es.tunnel_rtt_ms) && es.tunnel_rtt_ms >= 0.0,
                    "AuditService::restore: bad tunnel RTT");
    for (std::uint8_t v : es.history)
      detail::require(v <= static_cast<std::uint8_t>(assess::Verdict::kFalse),
                      "AuditService::restore: bad verdict in history");
    for (const ObservationSnapshot& ob : es.observations) {
      detail::require(ob.landmark_id < n_landmarks,
                      "AuditService::restore: bad landmark id");
      detail::require(
          std::isfinite(ob.one_way_delay_ms) && ob.one_way_delay_ms >= 0.0,
          "AuditService::restore: delays must be finite and non-negative");
    }
    ids.push_back(es.id);
  }
  // The pending FIFO holds exactly the queued entries, each once: a
  // repeated id would hand one entry to two solver workers in a round.
  std::vector<std::uint8_t> pending(ids.size(), 0);
  for (std::size_t id : snap.pending) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    detail::require(it != ids.end() && *it == id,
                    "AuditService::restore: pending id names no entry");
    const auto k = static_cast<std::size_t>(it - ids.begin());
    detail::require(!pending[k], "AuditService::restore: repeated pending id");
    pending[k] = 1;
  }
  for (std::size_t k = 0; k < ids.size(); ++k)
    detail::require(snap.entries[k].queued == (pending[k] != 0),
                    "AuditService::restore: queued flags disagree with the "
                    "pending queue");
}

void AuditService::restore(const EpochSnapshot& snap) {
  AGEO_SPAN("serve", "restore");
  AGEO_COUNT("serve.restores");
  detail::require(!bootstrapped_,
                  "AuditService::restore: restore onto a freshly admitted "
                  "service, not a bootstrapped one");
  check_snapshot(snap);
  eta_ = snap.eta;
  epoch_ = snap.epoch;

  // Serial: re-register tunnels in snapshot (== id) order, matching the
  // registration order bootstrap used, so the simulated network deals
  // the same host ids and streams as the original run.
  std::vector<std::size_t> ids;
  ids.reserve(snap.entries.size());
  for (const EntrySnapshot& es : snap.entries) {
    ProxyEntry& e = *pool_.find(es.id);
    open_tunnel(e);
    ActiveState& st = *e.state;
    st.prober.emplace(measure::ProxyProber::resume(
        *bed_, st.session, eta_.eta, es.tunnel_rtt_ms));
    st.continent = static_cast<world::Continent>(es.continent);
    st.probe_pool = measure::continent_landmarks(*bed_, st.continent);
    st.pool_cursor = es.pool_cursor;
    st.refresh_cursor = es.refresh_cursor;
    st.queued = es.queued;
    st.jseq = es.jseq;
    st.observed.assign(bed_->landmarks().size(), false);
    st.observations.reserve(es.observations.size());
    for (const ObservationSnapshot& ob : es.observations) {
      st.observations.push_back({ob.landmark_id,
                                 bed_->landmarks()[ob.landmark_id].location,
                                 ob.one_way_delay_ms});
      st.observed[ob.landmark_id] = true;
    }
    st.row.observations = st.observations;
    // The solve pass below rebuilds the memo from every observation, so
    // a snapshotted needs_full is spent: the memo covers them all.
    st.memo_solved = st.observations.size();
    e.last_solve_epoch = es.last_solve_epoch;
    e.probe_failures = es.probe_failures;
    e.tunnel_drops = es.tunnel_drops;
    for (std::uint8_t v : es.history)
      e.history.push(static_cast<assess::Verdict>(v));
    e.status = EntryStatus::kActive;
    ids.push_back(es.id);
  }
  pending_.assign(snap.pending.begin(), snap.pending.end());

  AGEO_GAUGE_SET("serve.plan_cache_capacity",
                 static_cast<double>(auditor_.plan_cache().capacity()));

  // Rebuild regions, verdicts, and solver memos by the solve pass — they
  // are deterministic functions of the observations, so the restored
  // rows are bit-identical to the snapshotted run's. History and
  // last_solve_epoch came from the snapshot and are NOT touched here,
  // and nothing is journaled per entry: the snapshotted run already
  // journaled these verdicts.
  std::vector<assess::Auditor::ProxySlot> slots =
      slots_of(ids, /*journal=*/false);
  auditor_.solve_pass(slots);
  AGEO_COUNTER_ADD("serve.restore.resolves", ids.size());

  if (obs::journal_runtime_on()) {
    obs::Event(obs::kRunEvent, run_jseq_++, obs::Scope::kSchedule, "restore")
        .num("epoch", epoch_)
        .num("entries", ids.size())
        .num("pending", pending_.size())
        .emit();
  }
  bootstrapped_ = true;
}

}  // namespace ageo::serve
