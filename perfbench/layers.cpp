// The traced run's adapter: every call into a single layer's public
// functions lives here, so the timed end-to-end loops in driver.cpp touch
// only the top-level entry points (Testbed, Auditor, AuditService).
//
// Layers are timed serially, one call at a time, so each number is that
// layer's own busy time; the driver compares their sum against a serial
// Auditor::run to report what the layer set leaves unattributed.
#include <algorithm>
#include <cstdio>
#include <set>

#include "algos/geolocator.hpp"
#include "assess/claim.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "grid/cap_cache.hpp"
#include "measure/campaign.hpp"
#include "measure/proxy_measure.hpp"
#include "mlat/refine.hpp"

namespace perfbench {

using namespace ageo;

namespace {

/// Rows the incremental-update replay samples (evenly spaced over the
/// fleet); enough for >1000 update samples at ~12 appended observations
/// per row.
constexpr std::size_t kUpdateRows = 96;
/// Landmarks whose distance tables are built to time that layer.
constexpr std::size_t kTableSample = 64;

double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

/// Bit-equal solve results (regions compared by cell bits, so estimates
/// on two Grid objects of one cell size compare equal).
bool same_solve(const algos::GeoEstimate& est, const grid::Region& region,
                std::size_t total, std::size_t used) {
  return est.region.words() == region.words() &&
         est.constraints_total == total && est.constraints_used == used;
}

bool same_estimate(const algos::GeoEstimate& a, const algos::GeoEstimate& b) {
  return same_solve(a, b.region, b.constraints_total, b.constraints_used) &&
         a.used == b.used;
}

/// A geolocator wired the way the Auditor wires its own: shared plan
/// cache and, when the schedule is enabled, the coarse-to-fine context.
struct Locator {
  Locator(const assess::AuditConfig& cfg, const grid::Grid& g,
          const grid::Region& mask, grid::CapPlanCache& cache)
      : loc(assess::make_geolocator(cfg)) {
    loc->set_plan_cache(&cache);
    if (cfg.refine.enabled()) {
      refine.emplace(g, cfg.refine);
      refine->prepare_mask(mask);
      loc->set_refine(&*refine);
    }
  }
  std::unique_ptr<algos::Geolocator> loc;
  std::optional<mlat::RefineContext> refine;
};

/// Register the client and one tunnel per fleet host, the way an audit
/// does before measuring.
std::vector<netsim::ProxySession> open_sessions(measure::Testbed& bed,
                                                const assess::AuditConfig& cfg,
                                                const world::Fleet& fleet) {
  netsim::HostProfile client_profile;
  client_profile.location = cfg.client_location;
  client_profile.net_quality = 0.95;
  const netsim::HostId client = bed.add_host(client_profile);
  std::vector<netsim::ProxySession> sessions;
  sessions.reserve(fleet.hosts.size());
  for (const auto& h : fleet.hosts) {
    netsim::HostProfile p;
    p.location = h.true_location;
    p.net_quality = 0.8;
    p.icmp_responds = h.pingable;
    p.tcp_port80_open = true;
    p.filters_uncommon_ports = true;
    p.sends_time_exceeded = !h.drops_time_exceeded;
    netsim::ProxyBehavior behavior;
    behavior.icmp_responds = h.pingable;
    behavior.gateway_pingable = h.gateway_pingable;
    behavior.drops_time_exceeded = h.drops_time_exceeded;
    sessions.emplace_back(bed.net(), client, bed.add_host(p), behavior);
  }
  return sessions;
}

}  // namespace

LayerTimes trace_layers(const LayerInputs& in, Sink& sink) {
  const assess::AuditConfig& cfg = *in.config;
  LayerTimes out;
  auto bed = make_testbed(in.seed);
  const world::Fleet fleet = make_fleet(*bed, in.seed);
  const std::size_t n_landmarks = bed->landmarks().size();

  // --- measure: eta and the per-proxy two-phase campaigns -------------
  std::vector<netsim::ProxySession> sessions = open_sessions(*bed, cfg, fleet);
  auto t0 = Clock::now();
  const measure::EtaEstimate eta =
      measure::estimate_eta(sessions, cfg.eta_samples);
  out.eta_s = seconds_since(t0);

  std::vector<double> campaign_us;
  campaign_us.reserve(sessions.size());
  std::uint64_t probes = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    netsim::Lane lane = bed->net().make_lane(derive_seed(cfg.seed, i + 1));
    measure::BreakerBoard board(cfg.campaign.breaker);
    t0 = Clock::now();
    sessions[i].set_lane(&lane);
    measure::ProxyProber prober(*bed, sessions[i], eta.eta,
                                cfg.self_ping_samples);
    measure::CampaignEngine engine(prober.as_rich_probe_fn(), cfg.campaign,
                                   &board);
    engine.set_round_hook([&] { bed->net().advance_round(1, &lane); });
    engine.attach_tunnel(prober);
    Rng rng(derive_seed(cfg.seed, i + 1), "audit");
    const auto tp = measure::two_phase_measure(*bed, engine, rng,
                                               cfg.two_phase);
    sessions[i].set_lane(nullptr);
    campaign_us.push_back(us_since(t0));
    probes += tp.stats.probes_sent;
  }
  out.campaign_s = sum(campaign_us) / 1e6;
  sink.metric("measure.eta_ms", "ms", out.eta_s * 1e3);
  sink.metric("measure.campaign_ms", "ms", out.campaign_s * 1e3);
  sink.metric("measure.campaign_us_p50", "us", median(campaign_us));
  std::printf("measure.campaign_us_%s: %.1f us (%zu campaigns, %llu probes)\n",
              tail_label(campaign_us.size()).c_str(), tail(campaign_us),
              campaign_us.size(), static_cast<unsigned long long>(probes));

  // --- assess: country warm-up through the Auditor's public caches ----
  assess::Auditor auditor(*bed, cfg);
  const grid::Grid& g = *in.grid;
  const grid::Region mask = bed->world().plausibility_mask(g);
  std::set<world::CountryId> claimed;
  for (const auto& h : fleet.hosts) claimed.insert(h.claimed_country);
  t0 = Clock::now();
  for (world::CountryId id : claimed) auditor.country_landmark_km(id);
  out.warm_s = seconds_since(t0);
  sink.metric("assess.warm_ms", "ms", out.warm_s * 1e3);

  // --- grid: scan plans and distance tables ---------------------------
  grid::CapPlanCache cache(std::max<std::size_t>(
      512, n_landmarks * (1 + cfg.refine.levels.size())));
  t0 = Clock::now();
  for (const auto& lm : bed->landmarks()) cache.plan(g, lm.location);
  sink.metric("grid.plan_build_ms", "ms", seconds_since(t0) * 1e3);

  double table_s = 0.0;
  const std::size_t stride =
      std::max<std::size_t>(1, n_landmarks / kTableSample);
  std::size_t tables = 0;
  for (std::size_t j = 0; j < n_landmarks && tables < kTableSample;
       j += stride, ++tables) {
    grid::CapScanPlan plan(g, bed->landmarks()[j].location);
    t0 = Clock::now();
    plan.cell_distances_km();
    table_s += seconds_since(t0);
  }
  // Projected to every landmark: what a table-reading locator (Spotter)
  // pays on this grid.
  sink.metric("grid.distance_table_ms", "ms",
              table_s * 1e3 * static_cast<double>(n_landmarks) /
                  static_cast<double>(tables));
  std::printf("grid.distance_table_mb: %.1f MB (%zu landmarks x %zu cells "
              "x 8 B)\n",
              static_cast<double>(n_landmarks * g.size() * 8) / 1e6,
              n_landmarks, g.size());

  // --- algos: locate replay on every row, warm cache ------------------
  Locator locator(cfg, g, mask, cache);
  const algos::Geolocator& loc = *locator.loc;
  if (cfg.algorithm != assess::AuditAlgorithm::kCbgPlusPlus) {
    // Table-reading locators: build every table before timing, so the
    // replay sees the warm cache an audit ends with.
    for (const auto& lm : bed->landmarks())
      cache.plan(g, lm.location)->cell_distances_km();
  }
  std::vector<double> locate_us;
  locate_us.reserve(in.rows.size());
  double constraints = 0.0, observations = 0.0;
  std::size_t with_constraints = 0, fast_path = 0, replayed = 0;
  for (const auto& row : in.rows) {
    if (row.observations.empty()) continue;
    t0 = Clock::now();
    const algos::GeoEstimate est =
        loc.locate(g, bed->store(), row.observations, &mask);
    locate_us.push_back(us_since(t0));
    ++replayed;
    constraints += static_cast<double>(row.constraints_total);
    observations += static_cast<double>(row.observations.size());
    if (row.constraints_total > 0) {
      ++with_constraints;
      fast_path += row.constraints_used == row.constraints_total;
    }
    if (!same_solve(est, row.region, row.constraints_total,
                    row.constraints_used))
      sink.fail("locate replay differs from the audit row of host " +
                std::to_string(row.host_index));
  }
  out.locate_s = sum(locate_us) / 1e6;
  sink.metric("algos.locate_ms", "ms", out.locate_s * 1e3);
  sink.metric("algos.locate_us_p50", "us", median(locate_us));
  sink.metric("algos.locate_us_p99", "us", tail(locate_us));
  const double rows_d = static_cast<double>(std::max<std::size_t>(1, replayed));
  sink.metric("mlat.observations_per_proxy", "count", observations / rows_d);
  std::printf("mlat.constraints_per_proxy: %.3f\n", constraints / rows_d);
  if (with_constraints > 0)
    std::printf("mlat.lcs_fastpath_frac: %.4f (%zu of %zu rows with "
                "constraints)\n",
                static_cast<double>(fast_path) /
                    static_cast<double>(with_constraints),
                fast_path, with_constraints);

  // --- assess: claim classification, disambiguation, ICLab -----------
  const world::CountryRaster raster = bed->world().country_raster(g);
  const algos::IclabChecker iclab(cfg.iclab);
  t0 = Clock::now();
  std::size_t claim_mismatch = in.rows.size();
  for (std::size_t r = 0; r < in.rows.size(); ++r) {
    const auto& row = in.rows[r];
    const assess::ClaimAssessment base =
        assess::assess_claim(bed->world(), raster, row.region, row.claimed);
    assess::Verdict verdict = base.country;
    if (cfg.use_data_centers)
      verdict = assess::disambiguate_by_data_centers(bed->world(), row.region,
                                                     row.claimed, base)
                    .verdict;
    const bool accepted =
        !row.observations.empty() &&
        iclab.accepts(row.observations,
                      auditor.country_landmark_km(row.claimed));
    if (claim_mismatch == in.rows.size() &&
        (verdict != row.verdict_dc || base.continent != row.continent_verdict ||
         accepted != row.iclab_accepted))
      claim_mismatch = r;
  }
  out.claim_s = seconds_since(t0);
  sink.metric("assess.claim_ms", "ms", out.claim_s * 1e3);
  if (claim_mismatch != in.rows.size())
    sink.fail("claim replay differs from the audit row of host " +
              std::to_string(in.rows[claim_mismatch].host_index));

  // --- algos: one-more-observation updates, the service's solve path --
  // Each sampled row is solved on the first half of its observations with
  // a memo, then absorbs the rest one at a time: locate_update when the
  // memo holds, otherwise a full locate_memo (what AuditService does).
  // Every step is checked against a from-scratch locate.
  std::vector<double> update_us, memo_us;
  std::size_t fallbacks = 0, steps = 0;
  std::vector<std::size_t> sample;
  for (std::size_t r = 0; r < in.rows.size(); ++r)
    if (in.rows[r].observations.size() >= 8) sample.push_back(r);
  const std::size_t every =
      std::max<std::size_t>(1, sample.size() / kUpdateRows);
  for (std::size_t s = 0; s < sample.size(); s += every) {
    const auto& row = in.rows[sample[s]];
    const std::span<const algos::Observation> obs(row.observations);
    const std::size_t n0 = obs.size() / 2;
    algos::GeoEstimate est;
    t0 = Clock::now();
    auto memo = loc.locate_memo(g, bed->store(), obs.first(n0), &mask, est);
    memo_us.push_back(us_since(t0));
    for (std::size_t k = n0; k < obs.size(); ++k) {
      const auto prefix = obs.first(k + 1);
      t0 = Clock::now();
      bool updated = memo && loc.locate_update(*memo, g, bed->store(), prefix,
                                               k, &mask, est);
      if (!updated) {
        if (memo) ++fallbacks;
        memo = loc.locate_memo(g, bed->store(), prefix, &mask, est);
      }
      update_us.push_back(us_since(t0));
      ++steps;
      if (!same_estimate(est, loc.locate(g, bed->store(), prefix, &mask)))
        sink.fail("incremental update differs from a full locate (host " +
                  std::to_string(row.host_index) + ", " +
                  std::to_string(k + 1) + " observations)");
    }
  }
  sink.metric("algos.update_us_p50", "us", median(update_us));
  sink.metric("algos.update_us_p99", "us", tail(update_us));
  sink.metric("algos.memo_locate_us_p50", "us", median(memo_us));
  std::printf("algos.update: %zu steps over %zu rows, %zu memo fallbacks, "
              "%s\n",
              steps, memo_us.size(), fallbacks,
              memo_us.empty() || update_us.empty()
                  ? "no samples"
                  : "every step equal to a full locate");
  return out;
}

void check_rows_against_locate(const assess::AuditConfig& config,
                               const measure::Testbed& bed,
                               const grid::Grid& g,
                               std::span<const assess::ProxyAuditRow> rows,
                               Sink& sink) {
  const grid::Region mask = bed.world().plausibility_mask(g);
  grid::CapPlanCache cache(std::max<std::size_t>(
      512, bed.landmarks().size() * (1 + config.refine.levels.size())));
  Locator locator(config, g, mask, cache);
  std::size_t checked = 0;
  for (const auto& row : rows) {
    if (row.observations.empty()) continue;
    const algos::GeoEstimate est =
        locator.loc->locate(g, bed.store(), row.observations, &mask);
    ++checked;
    if (!same_solve(est, row.region, row.constraints_total,
                    row.constraints_used) ||
        est.used != row.landmark_used) {
      sink.fail("service row of host " + std::to_string(row.host_index) +
                " differs from a from-scratch locate");
      return;
    }
  }
  std::printf("serve rows == from-scratch locate: %zu rows checked\n", checked);
}

double time_next_rank(const serve::AuditService& service) {
  const auto t0 = Clock::now();
  service.pool().rank(service.config().weights, service.epoch() + 1,
                      service.config().round_quota, false);
  return seconds_since(t0);
}

}  // namespace perfbench
