#include "assess/audit.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>

#include "algos/hybrid.hpp"
#include "algos/spotter.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "geo/geodesy.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"
#include "grid/field.hpp"
#include "grid/scratch.hpp"
#include "obs/journal.hpp"
#include "obs/obs.hpp"

namespace ageo::assess {

namespace {
constexpr std::pair<AuditAlgorithm, const char*> kAlgorithmNames[] = {
    {AuditAlgorithm::kCbgPlusPlus, "cbgpp"},
    {AuditAlgorithm::kSpotter, "spotter"},
    {AuditAlgorithm::kHybrid, "hybrid"},
};
}  // namespace

AuditAlgorithm parse_algorithm(std::string_view name) {
  for (const auto& [a, n] : kAlgorithmNames)
    if (n == name) return a;
  throw InvalidArgument("algorithm: unknown name '" + std::string(name) +
                        "' (expected cbgpp, spotter or hybrid)");
}

const char* to_string(AuditAlgorithm a) noexcept {
  for (const auto& [alg, n] : kAlgorithmNames)
    if (alg == a) return n;
  return "unknown";
}

const AuditConfig& AuditConfig::validate() const {
  // Comparisons are written so that NaN fails them.
  const auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  grid::Grid::validate_cell_deg(grid_cell_deg, "grid_cell_deg");
  detail::require(geo::is_valid(client_location),
                  "AuditConfig: client_location must be a finite latitude "
                  "in [-90, 90] and a finite longitude");
  two_phase.validate();
  campaign.validate();
  detail::require(self_ping_samples > 0,
                  "AuditConfig: self_ping_samples must be > 0");
  detail::require(eta_samples > 0, "AuditConfig: eta_samples must be > 0");
  refine.validate(grid_cell_deg);
  grid::detail::require_credible_mass(spotter_credible_mass,
                                      "AuditConfig: spotter_credible_mass");
  iclab.validate();
  detail::require(in_unit(byzantine_min_agreement),
                  "AuditConfig: byzantine_min_agreement must be in [0, 1]");
  detail::require(byzantine_min_constraints > 0,
                  "AuditConfig: byzantine_min_constraints must be >= 1");
  detail::require(in_unit(suspicion_min_score),
                  "AuditConfig: suspicion_min_score must be in [0, 1]");
  detail::require(suspicion_min_solves > 0,
                  "AuditConfig: suspicion_min_solves must be >= 1");
  drift.validate();
  detail::require(threads >= 0, "AuditConfig: threads must be >= 0");
  return *this;
}

std::unique_ptr<algos::Geolocator> make_geolocator(const AuditConfig& c) {
  switch (c.algorithm) {
    case AuditAlgorithm::kSpotter:
      return std::make_unique<algos::SpotterGeolocator>(
          c.spotter_credible_mass);
    case AuditAlgorithm::kHybrid:
      return std::make_unique<algos::HybridGeolocator>();
    case AuditAlgorithm::kCbgPlusPlus:
      break;
  }
  return std::make_unique<algos::CbgPlusPlusGeolocator>(c.cbg_pp);
}

std::uint64_t proxy_seed(std::uint64_t seed, std::size_t host_index) {
  // The golden-ratio multiply spreads the index across all 64 bits; a
  // bare xor would only flip low bits, leaving neighbouring proxies'
  // streams (and the network's own seed-derived streams) correlated.
  return seed ^ ((static_cast<std::uint64_t>(host_index) + 1) *
                 0x9e3779b97f4a7c15ULL);
}

namespace {

/// "2:134 0.5:17" — one cell_deg:survivors pair per refine-ladder level
/// pass, for the journal's refine event.
std::string ladder_string(const algos::LocateProvenance& prov) {
  std::string out;
  for (const auto& l : prov.ladder) {
    if (!out.empty()) out += ' ';
    out += obs::format_double(l.cell_deg);
    out += ':' + std::to_string(l.survivors);
  }
  return out;
}

/// The calibration model families an audit reads: the drift watchdog's
/// plain CBG bestlines plus the algorithm's own.
unsigned audit_families(const AuditConfig& c) {
  using Store = calib::CalibrationStore;
  switch (c.algorithm) {
    case AuditAlgorithm::kSpotter:
    case AuditAlgorithm::kHybrid:
      return Store::kCbg | Store::kSpotter;
    case AuditAlgorithm::kCbgPlusPlus:
      break;
  }
  return c.cbg_pp.use_slowline ? Store::kCbg | Store::kCbgSlowline
                               : Store::kCbg;
}

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Auditor::Auditor(measure::Testbed& bed, AuditConfig config)
    : config_(config.validate()),
      bed_(&bed),
      grid_(std::make_shared<grid::Grid>(config.grid_cell_deg)),
      mask_(bed.world().plausibility_mask(*grid_)),
      raster_(bed.world().country_raster(*grid_)),
      country_regions_(bed.world().country_count()),
      country_landmark_km_(bed.world().country_count()),
      // Every posterior a locate builds on the audit grid starts inside
      // mask_, so its ring multiplies only read mask cells: the distance
      // tables of plans on that grid cover the mask and nothing else.
      // One slot per landmark AND per refinement level (each coarse
      // grid gets its own plans), so the LRU never evicts: with fewer
      // slots than landmarks it would evict every plan once per proxy.
      plan_cache_(std::max<std::size_t>(
                      512, bed.landmarks().size() *
                               (1 + config.refine.levels.size())),
                  mask_),
      locator_(make_geolocator(config)),
      iclab_(config.iclab) {
  bed.store().fit(audit_families(config_), config_.threads);
  locator_->set_plan_cache(&plan_cache_);
  if (config_.refine.enabled()) {
    refine_ctx_.emplace(*grid_, config_.refine);
    refine_ctx_->prepare_mask(mask_);
    locator_->set_refine(&*refine_ctx_);
  }
}

const grid::Region& Auditor::country_region(world::CountryId id) {
  detail::require(id < country_regions_.size(),
                  "Auditor::country_region: bad country id");
  if (!country_regions_[id]) {
    grid::Region r(*grid_);
    for (std::size_t c = 0; c < grid_->size(); ++c)
      if (raster_.at(c) == id) r.set(c);
    r.set(grid_->cell_at(bed_->world().country(id).capital));
    country_regions_[id] = std::move(r);
  }
  return *country_regions_[id];
}

std::span<const double> Auditor::country_landmark_km(world::CountryId id) {
  detail::require(id < country_landmark_km_.size(),
                  "Auditor::country_landmark_km: bad country id");
  std::vector<double>& table = country_landmark_km_[id];
  if (table.empty()) {
    const grid::Region& region = country_region(id);
    const auto& landmarks = bed_->landmarks();
    // One pass over the region, folding the max center dot per landmark
    // — the same order-independent fold Region::distance_from_km runs
    // per query, so each entry is bit-identical to the per-observation
    // scan it replaces.
    std::vector<geo::Vec3> vecs;
    vecs.reserve(landmarks.size());
    for (const auto& lm : landmarks) vecs.push_back(geo::to_vec3(lm.location));
    std::vector<double> dots(landmarks.size(), -2.0);
    region.for_each_cell([&](std::size_t idx) {
      const geo::Vec3& c = grid_->center_vec(idx);
      for (std::size_t j = 0; j < vecs.size(); ++j) {
        const double d = vecs[j].dot(c);
        if (d > dots[j]) dots[j] = d;
      }
    });
    table.resize(landmarks.size());
    for (std::size_t j = 0; j < landmarks.size(); ++j) {
      if (region.test(grid_->cell_at(landmarks[j].location))) {
        table[j] = 0.0;
        continue;
      }
      const double b = std::min(1.0, std::max(-1.0, dots[j]));
      table[j] = geo::kEarthRadiusKm * std::acos(b);
    }
  }
  return table;
}

// ---- pipeline stages ----

netsim::HostId Auditor::register_client() {
  netsim::HostProfile p;
  p.location = config_.client_location;
  p.net_quality = 0.95;
  return bed_->add_host(p);
}

netsim::ProxySession Auditor::open_tunnel(netsim::HostId client,
                                          const world::ProxyHost& h) {
  netsim::HostProfile p;
  p.location = h.true_location;
  p.net_quality = 0.8;
  p.icmp_responds = h.pingable;
  p.tcp_port80_open = true;
  p.filters_uncommon_ports = true;
  p.sends_time_exceeded = !h.drops_time_exceeded;
  const netsim::HostId id = bed_->add_host(p);
  netsim::ProxyBehavior behavior;
  behavior.icmp_responds = h.pingable;
  behavior.gateway_pingable = h.gateway_pingable;
  behavior.drops_time_exceeded = h.drops_time_exceeded;
  return netsim::ProxySession(bed_->net(), client, id, behavior);
}

ProxyAuditRow Auditor::new_row(std::size_t index,
                               const world::ProxyHost& host) const {
  ProxyAuditRow row;
  row.host_index = index;
  row.provider = host.provider;
  row.claimed = host.claimed_country;
  row.claimed_continent = bed_->world().continent_of(host.claimed_country);
  row.true_country = host.true_country;
  return row;
}

void Auditor::warm_countries(std::span<const world::CountryId> ids) {
  AGEO_STAGE_SPAN("assess", "audit.warm_countries");
  // All missing regions are built in ONE raster pass (the lazy path pays
  // a full-grid scan per country); per-country bits are identical either
  // way, since both set exactly the raster-match cells plus the capital.
  std::vector<std::uint8_t> pending(country_regions_.size(), 0);
  bool any_pending = false;
  for (const world::CountryId id : ids) {
    detail::require(id < country_regions_.size(),
                    "Auditor: bad claimed country id");
    if (!country_regions_[id] && !pending[id]) {
      pending[id] = 1;
      any_pending = true;
      country_regions_[id].emplace(*grid_);
    }
  }
  if (any_pending) {
    for (std::size_t c = 0; c < grid_->size(); ++c) {
      const world::CountryId id = raster_.at(c);
      if (id < pending.size() && pending[id]) country_regions_[id]->set(c);
    }
    for (std::size_t id = 0; id < pending.size(); ++id)
      if (pending[id])
        country_regions_[id]->set(
            grid_->cell_at(bed_->world().country(id).capital));
  }
  // Each missing landmark table is then built in its own task, from its
  // own (now warm) region. Sorted and deduped, so no two tasks write the
  // same table; each table is the lazy path's, bit for bit.
  std::vector<world::CountryId> cold;
  for (const world::CountryId id : ids)
    if (country_landmark_km_[id].empty()) cold.push_back(id);
  std::sort(cold.begin(), cold.end());
  cold.erase(std::unique(cold.begin(), cold.end()), cold.end());
  parallel_for(cold.size(), config_.threads,
               [&](std::size_t k) { country_landmark_km(cold[k]); });
}

world::Continent Auditor::measure_proxy(ProxyAuditRow& row,
                                        measure::ProxyProber& prober,
                                        netsim::Lane& lane,
                                        std::uint32_t* jseq) const {
  // A fresh engine owns a fresh breaker board: campaigns share no state.
  measure::CampaignEngine engine(prober.as_rich_probe_fn(), config_.campaign);
  engine.set_round_hook(
      [this, lane = &lane] { bed_->net().advance_round(1, lane); });
  engine.attach_tunnel(prober);
  Rng rng(proxy_seed(config_.seed, row.host_index), "audit");
  auto tp = measure::two_phase_measure(*bed_, engine, rng, config_.two_phase);
  // A copy, not a move: the copy is sized exactly, while the campaign's
  // vector keeps its growth slack for as long as the row lives.
  row.observations = tp.observations;
  row.campaign = tp.stats;
  row.tunnel_flagged = engine.tunnel_flagged();
  // Registry-backed view of this campaign's stats. The engine is fresh
  // per proxy, so each row publishes exactly once; the TLS shard merge
  // makes the totals thread-count independent.
  measure::publish_campaign_stats(row.campaign);
  if (jseq) {
    const measure::CampaignStats& st = row.campaign;
    obs::Event(row.host_index, (*jseq)++, obs::Scope::kVerdict, "campaign")
        .text("provider", row.provider)
        .num("claimed_country", row.claimed)
        .num("observations", row.observations.size())
        .num("probes_sent", st.probes_sent)
        .num("ok", st.ok)
        .num("refused_measured", st.refused_measured)
        .num("timeouts", st.timeouts)
        .num("dropped", st.dropped)
        .num("retries", st.retries)
        .num("retry_exhausted", st.retry_exhausted)
        .num("breaker_trips", st.breaker_trips)
        .num("breaker_skips", st.breaker_skips)
        .num("replacements", st.replacements)
        .num("tunnel_drops", st.tunnel_drops)
        .num("rounds", st.rounds)
        .flag("tunnel_flagged", row.tunnel_flagged)
        .emit();
  }
  return tp.continent;
}

void Auditor::campaign_pass(std::span<ProxySlot> slots, double eta) {
  // Every campaign is self-contained: its own RNG streams and network
  // lane (both derived from seed xor host index) and its own breaker
  // board, so threads=1 and threads=N produce bit-identical rows. The
  // per-proxy journal cursors need no synchronization: exactly one
  // worker touches a slot, and the (proxy, seq) merge key makes the
  // collected journal thread-count independent.
  const bool timing = obs::metrics_enabled() || obs::journal_runtime_on();
  parallel_for(slots.size(), config_.threads, [&](std::size_t k) {
    AGEO_SPAN("assess", "audit.proxy");
    AGEO_TIMED_US("assess.audit.proxy_us", 10.0, 1e8);
    std::chrono::steady_clock::time_point t0;
    if (timing) t0 = std::chrono::steady_clock::now();
    ProxySlot& slot = slots[k];
    netsim::Lane lane =
        bed_->net().make_lane(proxy_seed(config_.seed, slot.row->host_index));
    slot.session->set_lane(&lane);
    std::optional<measure::ProxyProber> local;
    std::optional<measure::ProxyProber>& prober =
        slot.prober ? *slot.prober : local;
    prober.emplace(*bed_, *slot.session, eta, config_.self_ping_samples);
    slot.continent = measure_proxy(*slot.row, *prober, lane, slot.jseq);
    slot.session->set_lane(nullptr);  // the lane dies with this task
    if (timing) slot.wall_us += elapsed_us(t0);
  });
}

void Auditor::solve_pass(std::span<ProxySlot> slots) {
  // Warm the country caches first; the workers below only read them.
  std::vector<world::CountryId> claimed;
  claimed.reserve(slots.size());
  for (const ProxySlot& slot : slots) claimed.push_back(slot.row->claimed);
  warm_countries(claimed);
  // Each row's solve depends only on its own observations.
  const bool timing = obs::metrics_enabled() || obs::journal_runtime_on();
  parallel_for(slots.size(), config_.threads, [&](std::size_t k) {
    std::chrono::steady_clock::time_point t0;
    if (timing) t0 = std::chrono::steady_clock::now();
    ProxySlot& slot = slots[k];
    solve_row(*slot.row, slot.memo, slot.jseq);
    if (timing) slot.wall_us += elapsed_us(t0);
  });
}

void Auditor::solve_row(ProxyAuditRow& row,
                        std::unique_ptr<algos::LocatorMemo>* memo,
                        std::uint32_t* jseq) {
  algos::GeoEstimate est;
  if (!row.observations.empty()) {
    AGEO_SPAN("assess", "audit.locate");
    if (memo)
      *memo = locator_->locate_memo(*grid_, bed_->store(), row.observations,
                                    &mask_, est);
    else
      est = locator_->locate(*grid_, bed_->store(), row.observations, &mask_);
  }
  fill_and_assess(row, std::move(est), jseq);
}

void Auditor::fill_and_assess(ProxyAuditRow& row, algos::GeoEstimate est,
                              std::uint32_t* jseq) {
  const bool solved = !row.observations.empty();
  if (!solved) est.region = grid::Region(*grid_);
  row.region = std::move(est.region);
  row.constraints_total = est.constraints_total;
  row.constraints_used = est.constraints_used;
  row.landmark_used = std::move(est.used);
  // Byzantine verdict (DESIGN.md §11): the winning coalition left out
  // too many constraints. Honest campaigns on this testbed are fully
  // consistent (agreement 1.0 via the subset fast path), so a small
  // coalition means somebody — landmarks or the proxy — lied.
  row.byzantine = row.constraints_total >= config_.byzantine_min_constraints &&
                  row.agreement() < config_.byzantine_min_agreement;
  const std::size_t pid = row.host_index;
  if (jseq && solved) {
    for (std::size_t j = 0; j < row.observations.size(); ++j) {
      const algos::Observation& ob = row.observations[j];
      obs::Event(pid, (*jseq)++, obs::Scope::kVerdict, "constraint")
          .num("idx", j)
          .num("landmark", ob.landmark_id)
          .real("lat", ob.landmark.lat_deg)
          .real("lon", ob.landmark.lon_deg)
          .real("delay_ms", ob.one_way_delay_ms)
          .flag("used", j < row.landmark_used.size()
                            ? static_cast<bool>(row.landmark_used[j])
                            : true)
          .emit();
    }
    // Subset facts are execution-schedule invariant (refined and memoised
    // solves are pinned bit-identical to flat ones), so the lcs event is
    // kVerdict; the path actually taken is kSchedule by nature.
    obs::Event(pid, (*jseq)++, obs::Scope::kVerdict, "lcs")
        .num("total", row.constraints_total)
        .num("used", row.constraints_used)
        .num("baseline_subset", est.prov.baseline_subset)
        .num("discarded_by_baseline", est.prov.discarded_by_baseline)
        .real("agreement", row.agreement())
        .num("margin", row.constraints_total - row.constraints_used)
        .flag("byzantine", row.byzantine)
        .emit();
    obs::Event(pid, (*jseq)++, obs::Scope::kSchedule, "refine")
        .flag("refined", est.prov.refined)
        .num("levels", est.prov.ladder.size())
        .text("ladder", ladder_string(est.prov))
        .emit();
  }

  AGEO_SPAN("assess", "audit.assess");
  ClaimAssessment base =
      assess_claim(bed_->world(), raster_, row.region, row.claimed);
  row.verdict_raw = base.country;
  row.continent_verdict = base.continent;
  row.empty_prediction = base.empty_prediction || !solved;
  row.candidates = base.covered_countries;
  if (config_.use_data_centers) {
    Disambiguated d = disambiguate_by_data_centers(bed_->world(), row.region,
                                                   row.claimed, base);
    row.verdict_dc = d.verdict;
    row.candidates = d.candidates;
  } else {
    row.verdict_dc = base.country;
  }
  // AS//24 grouping is a cross-proxy join over a whole report; run()
  // applies it after every row is assessed (DESIGN.md §15).
  row.verdict_final = row.verdict_dc;

  row.area_km2 = row.region.area_km2();
  row.centroid = row.region.centroid();
  if (row.centroid) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& ob : row.observations)
      best = std::min(best, geo::distance_km(ob.landmark, *row.centroid));
    row.nearest_landmark_km = best;
  }
  row.iclab_accepted =
      solved &&
      iclab_.accepts(row.observations, country_landmark_km(row.claimed));
  if (jseq) {
    obs::Event ev(pid, (*jseq)++, obs::Scope::kVerdict, "assess");
    ev.text("verdict_raw", to_string(row.verdict_raw))
        .text("verdict_dc", to_string(row.verdict_dc))
        .text("continent", to_string(row.continent_verdict))
        .flag("empty_prediction", row.empty_prediction)
        .real("area_km2", row.area_km2)
        .num("candidates", row.candidates.size())
        .flag("iclab_accepted", row.iclab_accepted);
    if (row.centroid) {
      ev.real("centroid_lat", row.centroid->lat_deg)
          .real("centroid_lon", row.centroid->lon_deg)
          .real("nearest_landmark_km", row.nearest_landmark_km);
    }
    ev.emit();
  }
}

void Auditor::journal_verdict(const ProxyAuditRow& row,
                              std::uint32_t& jseq) const {
  obs::Event(row.host_index, jseq++, obs::Scope::kVerdict, "verdict")
      .text("final", to_string(row.verdict_final))
      .flag("byzantine", row.byzantine)
      .flag("tunnel_flagged", row.tunnel_flagged)
      .real("area_km2", row.area_km2)
      .emit();
}

void Auditor::summarize(AuditReport& report) const {
  report.grid = grid_;
  report.plan_cache = plan_cache_.stats();
  for (const auto& row : report.rows)
    report.campaign_totals.merge(row.campaign);

  // Suspicion fold (DESIGN.md §11): tally, per landmark, how often the
  // subset engine excluded it from a winning coalition. Folded in row
  // order, so the table is thread-count independent.
  std::vector<std::size_t> ids;
  for (const auto& row : report.rows) {
    if (row.landmark_used.empty()) continue;
    ids.clear();
    ids.reserve(row.observations.size());
    for (const auto& ob : row.observations) ids.push_back(ob.landmark_id);
    report.suspicion.record(ids, row.landmark_used);
  }
  std::vector<std::size_t> suspicious = report.suspicion.flagged(
      config_.suspicion_min_score, config_.suspicion_min_solves);

  // Drift watchdogs (DESIGN.md §14): per-landmark EWMA of the residual
  // between each observed delay and what the landmark's own bestline
  // predicts at the distance to the verdict centroid. Honest bestline
  // residuals sit at or above zero (the fit is a lower envelope), so a
  // strongly negative EWMA means impossible-fast replies — a deflating
  // landmark — while a far-positive one means the landmark's path has
  // degraded since calibration. Fed serially in row order.
  measure::DriftWatchdog dog(bed_->landmarks().size(), config_.drift);
  for (const auto& row : report.rows) {
    if (!row.centroid) continue;
    for (const auto& ob : row.observations) {
      const calib::CbgModel& m = bed_->store().cbg(ob.landmark_id);
      const double dist = geo::distance_km(ob.landmark, *row.centroid);
      dog.observe(ob.landmark_id,
                  ob.one_way_delay_ms -
                      (m.intercept_ms() + m.slope_ms_per_km() * dist));
    }
  }
  report.drift = dog.entries();
  report.drift_flagged = dog.flagged();
  // The suspicious set is the union of both signals, sorted ascending.
  suspicious.insert(suspicious.end(), report.drift_flagged.begin(),
                    report.drift_flagged.end());
  std::sort(suspicious.begin(), suspicious.end());
  suspicious.erase(std::unique(suspicious.begin(), suspicious.end()),
                   suspicious.end());
  report.suspicious_landmarks = std::move(suspicious);
}

AuditReport Auditor::run(const world::Fleet& fleet) {
  AGEO_STAGE_SPAN("assess", "audit.run");
  AGEO_COUNT("assess.audit.runs");
  AGEO_COUNTER_ADD("assess.audit.proxies", fleet.hosts.size());
  const std::size_t n = fleet.hosts.size();
  AuditReport report;

  std::vector<netsim::ProxySession> sessions;
  {
    AGEO_STAGE_SPAN("assess", "audit.register");
    const netsim::HostId client = register_client();
    sessions.reserve(n);
    for (const auto& h : fleet.hosts)
      sessions.push_back(open_tunnel(client, h));
  }

  // Fleet-wide eta from the pingable minority (paper Fig. 13). The pings
  // run serially on the network's default lane, before any fan-out; the
  // bootstrap refits run on the workers.
  {
    AGEO_STAGE_SPAN("assess", "audit.estimate_eta");
    report.eta = measure::estimate_eta(sessions, config_.eta_samples,
                                       config_.threads);
  }
  AGEO_GAUGE_SET("assess.audit.eta", report.eta.eta);

  // The two passes, barrier-separated. The slots keep no prober and
  // capture no memo: the batch audit holds nothing per proxy beyond its
  // row once a pass is done.
  const bool journal = obs::journal_runtime_on();
  std::vector<std::uint32_t> jseq(journal ? n : 0, 0);
  report.rows.reserve(n);
  std::vector<ProxySlot> slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    report.rows.push_back(new_row(i, fleet.hosts[i]));
    slots[i].row = &report.rows[i];
    slots[i].session = &sessions[i];
    if (journal) slots[i].jseq = &jseq[i];
  }
  campaign_pass(slots, report.eta.eta);
  solve_pass(slots);

  if (config_.use_as_grouping) apply_as_grouping(report.rows, fleet);
  summarize(report);

  // Serial epilogue: verdict tallies and run-level gauges, then the
  // run's telemetry snapshot. Everything here is counted exactly once
  // from the joining thread, so it is deterministic by construction.
  const VerdictTally tally = tally_verdicts(report.rows);
  if (obs::metrics_enabled()) {
    if (tally.credible)
      AGEO_COUNTER_ADD("assess.audit.verdict_credible", tally.credible);
    if (tally.uncertain)
      AGEO_COUNTER_ADD("assess.audit.verdict_uncertain", tally.uncertain);
    if (tally.false_)
      AGEO_COUNTER_ADD("assess.audit.verdict_false", tally.false_);
    if (tally.empty_predictions)
      AGEO_COUNTER_ADD("assess.audit.empty_predictions",
                       tally.empty_predictions);
    if (tally.tunnel_flagged)
      AGEO_COUNTER_ADD("assess.audit.tunnel_flagged_rows",
                       tally.tunnel_flagged);
    if (tally.byzantine)
      AGEO_COUNTER_ADD("assess.audit.byzantine_rows", tally.byzantine);
    for ([[maybe_unused]] const auto& row : report.rows)
      AGEO_HIST("assess.audit.region_area_km2", row.area_km2, 1e3, 1e9);
    // SLO view of per-proxy verdict latency (campaign + locate +
    // assess). Wall-clock by nature, so it lives outside determinism
    // diffs; the exporters surface p50/p90/p99 from the histogram.
    for ([[maybe_unused]] const ProxySlot& slot : slots)
      AGEO_HIST_WALL("assess.audit.verdict_latency_us", slot.wall_us, 10.0,
                     1e8);
    {
      std::uint64_t drift_samples = 0;
      double max_abs_ewma = 0.0;
      for (const auto& e : report.drift) {
        drift_samples += e.samples;
        if (e.samples > 0)
          max_abs_ewma = std::max(max_abs_ewma, std::abs(e.ewma_ms));
      }
      AGEO_COUNTER_ADD("obs.drift.samples", drift_samples);
      AGEO_GAUGE_SET("obs.drift.flagged_landmarks",
                     static_cast<double>(report.drift_flagged.size()));
      AGEO_GAUGE_SET("obs.drift.max_abs_ewma_ms", max_abs_ewma);
    }
    AGEO_COUNTER_ADD("assess.audit.suspicious_landmarks",
                     report.suspicious_landmarks.size());
    AGEO_GAUGE_SET("grid.plan_cache.size",
                   static_cast<double>(plan_cache_.size()));
    AGEO_GAUGE_SET("grid.plan_cache.table_bytes",
                   static_cast<double>(plan_cache_.table_bytes() +
                                       plan_cache_.domain_bytes()));
    // Arena occupancy depends on thread count and pool reuse, so these
    // gauges are wall-clock-only (excluded from determinism diffs).
    const grid::Scratch::Stats arena = grid::Scratch::aggregate();
    (void)arena;  // only consumed by the macros below when obs is built in
    AGEO_GAUGE_SET_WALL("mlat.scratch.retained_bytes",
                        static_cast<double>(arena.bytes_retained));
    AGEO_GAUGE_SET_WALL("mlat.scratch.high_water_bytes",
                        static_cast<double>(arena.high_water_bytes));
    AGEO_GAUGE_SET_WALL("mlat.scratch.bytes_allocated",
                        static_cast<double>(arena.bytes_allocated));
    report.telemetry = obs::Registry::global().snapshot();
  }

  // Journal epilogue: the final verdict per proxy (after AS grouping),
  // its wall latency, and the run-level suspicion/drift/summary ledger.
  // Run events carry the kRunEvent sentinel so they sort after every
  // proxy's stream in the merged JSONL.
  if (journal) {
    for (std::size_t i = 0; i < n; ++i) {
      journal_verdict(report.rows[i], jseq[i]);
      obs::Event(i, jseq[i]++, obs::Scope::kWall, "latency")
          .real("verdict_us", slots[i].wall_us)
          .emit();
    }
    std::uint32_t rseq = 0;
    for (std::size_t id : report.suspicion.flagged(
             config_.suspicion_min_score, config_.suspicion_min_solves)) {
      const mlat::LandmarkSuspicion& e = report.suspicion.entry(id);
      obs::Event(obs::kRunEvent, rseq++, obs::Scope::kVerdict, "suspicion")
          .num("landmark", id)
          .num("solves", e.solves)
          .num("excluded", e.excluded)
          .real("score", e.score())
          .emit();
    }
    for (std::size_t id : report.drift_flagged) {
      const measure::DriftEntry& e = report.drift[id];
      obs::Event(obs::kRunEvent, rseq++, obs::Scope::kVerdict, "drift")
          .num("landmark", id)
          .num("samples", e.samples)
          .real("ewma_ms", e.ewma_ms)
          .real("min_ms", e.min_ms)
          .real("max_ms", e.max_ms)
          .emit();
    }
    obs::Event(obs::kRunEvent, rseq++, obs::Scope::kVerdict, "summary")
        .num("proxies", report.rows.size())
        .num("credible", tally.credible)
        .num("uncertain", tally.uncertain)
        .num("false", tally.false_)
        .num("empty_predictions", tally.empty_predictions)
        .num("byzantine", tally.byzantine)
        .num("suspicious_landmarks", report.suspicious_landmarks.size())
        .emit();
  }
  return report;
}

void Auditor::apply_as_grouping(std::vector<ProxyAuditRow>& rows,
                                const world::Fleet& fleet) const {
  // Hosts sharing provider + AS + /24 are practically certain to sit in
  // one data center (Fig. 16); intersect their candidate-country sets.
  std::map<std::tuple<std::string, std::uint32_t, std::uint32_t>,
           std::vector<std::size_t>>
      groups;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& h = fleet.hosts[rows[r].host_index];
    groups[{h.provider, h.asn, h.prefix24}].push_back(r);
  }
  for (const auto& [key, members] : groups) {
    if (members.size() < 2) continue;
    // Intersect candidates across the group (skip empty predictions).
    std::vector<world::CountryId> common;
    bool first = true;
    for (std::size_t r : members) {
      if (rows[r].empty_prediction) continue;
      const auto& cand = rows[r].candidates;
      if (first) {
        common = cand;
        first = false;
        continue;
      }
      std::vector<world::CountryId> next;
      for (world::CountryId c : common)
        if (std::find(cand.begin(), cand.end(), c) != cand.end())
          next.push_back(c);
      common = std::move(next);
      if (common.empty()) break;
    }
    if (first || common.empty()) continue;  // no usable intersection
    for (std::size_t r : members) {
      if (rows[r].empty_prediction) continue;
      if (rows[r].verdict_dc != Verdict::kUncertain) continue;
      rows[r].candidates = common;
      const bool claimed_possible =
          std::find(common.begin(), common.end(), rows[r].claimed) !=
          common.end();
      if (!claimed_possible) {
        rows[r].verdict_final = Verdict::kFalse;
      } else if (common.size() == 1) {
        rows[r].verdict_final = Verdict::kCredible;
      }
    }
  }
}

VerdictTally tally_verdicts(std::span<const ProxyAuditRow> rows) {
  VerdictTally t;
  for (const auto& r : rows) {
    switch (r.verdict_final) {
      case Verdict::kCredible: ++t.credible; break;
      case Verdict::kUncertain: ++t.uncertain; break;
      case Verdict::kFalse: ++t.false_; break;
    }
    t.empty_predictions += r.empty_prediction;
    t.byzantine += r.byzantine;
    t.tunnel_flagged += r.tunnel_flagged;
  }
  return t;
}

AssessmentBreakdown breakdown(std::span<const ProxyAuditRow> rows,
                              bool use_disambiguated) {
  AssessmentBreakdown b;
  for (const auto& r : rows) {
    Verdict v = use_disambiguated ? r.verdict_final : r.verdict_raw;
    if (r.continent_verdict == Verdict::kFalse) {
      ++b.continent_false;
    } else if (v == Verdict::kCredible) {
      ++b.credible;
    } else if (v == Verdict::kUncertain) {
      if (r.continent_verdict == Verdict::kCredible)
        ++b.country_uncertain_continent_credible;
      else
        ++b.country_and_continent_uncertain;
    } else {
      if (r.continent_verdict == Verdict::kCredible)
        ++b.country_false_continent_credible;
      else
        ++b.country_false_continent_uncertain;
    }
  }
  return b;
}

std::vector<ProviderHonesty> honesty_by_provider(
    std::span<const ProxyAuditRow> rows, bool use_disambiguated) {
  std::vector<ProviderHonesty> out;
  auto find = [&](const std::string& p) -> ProviderHonesty& {
    for (auto& h : out)
      if (h.provider == p) return h;
    out.push_back(ProviderHonesty{p, 0, 0, 0, 0});
    return out.back();
  };
  for (const auto& r : rows) {
    auto& h = find(r.provider);
    ++h.n;
    Verdict v = use_disambiguated ? r.verdict_final : r.verdict_raw;
    switch (v) {
      case Verdict::kCredible:
        ++h.credible;
        break;
      case Verdict::kUncertain:
        ++h.uncertain;
        break;
      case Verdict::kFalse:
        ++h.false_;
        break;
    }
  }
  return out;
}

}  // namespace ageo::assess
