// The full VPN-fleet audit pipeline (paper §6).
//
// For every proxy: open a tunnel from the measurement client (Frankfurt
// in the paper), estimate the client-proxy RTT via tunnel self-pings
// scaled by the fleet-wide eta, run the two-phase measurement, locate
// with CBG++, classify the provider's country claim, and disambiguate
// with data-center locations and AS//24 metadata. Ground-truth fields
// ride along for scoring but are never consulted by the pipeline.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "algos/cbg_pp.hpp"
#include "algos/iclab.hpp"
#include "assess/claim.hpp"
#include "measure/campaign.hpp"
#include "measure/drift.hpp"
#include "measure/proxy_measure.hpp"
#include "measure/testbed.hpp"
#include "measure/two_phase.hpp"
#include "mlat/byzantine.hpp"
#include "mlat/refine.hpp"
#include "obs/metrics.hpp"
#include "world/fleet.hpp"

namespace ageo::assess {

/// Which geolocator turns a proxy's observations into a prediction
/// region. CBG++ is the paper's §6 choice; Spotter and the hybrid enable
/// cross-algorithm audits. All three share the Auditor's per-landmark
/// plan cache (rasterization geometry and, for Spotter, distance tables).
enum class AuditAlgorithm { kCbgPlusPlus, kSpotter, kHybrid };

/// The algorithm names of the CLI's --algo and the benches'
/// AGEO_AUDIT_ALGO: "cbgpp", "spotter", "hybrid". parse_algorithm throws
/// InvalidArgument naming `algorithm` for any other text.
AuditAlgorithm parse_algorithm(std::string_view name);
const char* to_string(AuditAlgorithm a) noexcept;

struct AuditConfig {
  double grid_cell_deg = 1.0;
  /// Measurement client location (the paper used one host in Frankfurt).
  geo::LatLon client_location{50.11, 8.68};
  measure::TwoPhaseConfig two_phase;
  /// Fault policies for the per-proxy measurement campaigns. Each proxy
  /// campaign runs against its own breaker board, so campaigns stay
  /// independent under the parallel fan-out.
  measure::CampaignConfig campaign;
  /// Tunnel self-pings per proxy and pings of each kind per proxy for
  /// eta; the Auditor rejects values below 1.
  int self_ping_samples = 5;
  int eta_samples = 5;
  bool use_data_centers = true;
  bool use_as_grouping = true;
  AuditAlgorithm algorithm = AuditAlgorithm::kCbgPlusPlus;
  /// Coarse-to-fine refinement schedule for the per-proxy localization
  /// (mlat/refine.hpp). Disabled (flat solves) by default; an enabled
  /// schedule is validated against the audit grid when the Auditor is
  /// built and yields bit-identical reports — refinement is purely a
  /// performance lever. Typical: RefineSchedule::parse("2.0,0.5") for a
  /// 0.25-degree audit grid.
  mlat::RefineSchedule refine;
  algos::CbgPlusPlusOptions cbg_pp;
  /// Posterior mass of the prediction region when algorithm == kSpotter.
  double spotter_credible_mass = 0.95;
  algos::IclabOptions iclab;
  // --- Byzantine flagging (DESIGN.md §11) ---
  /// Flag a proxy row as `byzantine` when fewer than this fraction of
  /// its constraints joined the winning consistent coalition. Honest
  /// campaigns on this testbed resolve with agreement near 1.0 (the
  /// subset fast path), but CBG++'s baseline filter honestly discards
  /// the occasional miscalibrated disk, so the threshold leaves room
  /// for that while still catching 25% deflating landmarks (which drag
  /// agreement toward 0.75 and below).
  double byzantine_min_agreement = 0.7;
  /// Do not flag rows with fewer constraints than this: with a handful
  /// of observations one discarded disk swings the agreement fraction
  /// wildly.
  std::size_t byzantine_min_constraints = 10;
  /// Flag a landmark as suspicious when it was excluded from the
  /// winning coalition in at least this fraction of the subset solves
  /// it participated in...
  double suspicion_min_score = 0.5;
  /// ...over at least this many solves (guards against one unlucky
  /// campaign condemning a landmark).
  std::uint64_t suspicion_min_solves = 4;
  /// Per-landmark RTT-drift watchdog thresholds (measure/drift.hpp).
  /// Residuals are folded against each verdict's centroid in the serial
  /// epilogue; flagged landmarks join `suspicious_landmarks`.
  measure::DriftConfig drift;
  std::uint64_t seed = 99;
  /// Worker threads for run()'s eta refits, country warm-up and
  /// per-proxy fan-out. 1 = serial in the calling thread; 0 = one per
  /// hardware thread; negative is rejected. Any value yields
  /// bit-identical reports: every proxy's campaign draws from its own
  /// (seed xor host-index)-derived RNG streams and network lane, and
  /// every fold runs in index order.
  int threads = 1;

  /// Every rule on the fields above, arithmetic only (nothing is built):
  /// the Grid cell-size rule on grid_cell_deg, the refine schedule
  /// against it, the nested two_phase, campaign, iclab and drift rules,
  /// a valid client_location, threads >= 0, sample and evidence counts
  /// >= 1, spotter_credible_mass in (0, 1] and the Byzantine fractions
  /// in [0, 1]. Throws InvalidArgument naming the field; returns *this
  /// so a constructor can validate in its first member initializer.
  const AuditConfig& validate() const;
};

/// Build the geolocator an AuditConfig selects (plan cache and refine
/// context not yet attached).
std::unique_ptr<algos::Geolocator> make_geolocator(const AuditConfig& c);

/// Independent per-proxy seed: the audit seed xor a mixed host index.
/// Seeds each proxy's campaign RNG and its epoch-0 network lane.
std::uint64_t proxy_seed(std::uint64_t seed, std::size_t host_index);

struct ProxyAuditRow {
  std::size_t host_index = 0;  // into Fleet::hosts
  std::string provider;
  world::CountryId claimed = world::kNoCountry;
  world::Continent claimed_continent = world::Continent::kEurope;

  // Ground truth, for scoring only.
  world::CountryId true_country = world::kNoCountry;

  // Pipeline outputs.
  grid::Region region;
  std::vector<algos::Observation> observations;
  Verdict verdict_raw = Verdict::kFalse;
  Verdict verdict_dc = Verdict::kFalse;     // after data-center step
  Verdict verdict_final = Verdict::kFalse;  // after AS//24 grouping
  Verdict continent_verdict = Verdict::kFalse;
  std::vector<world::CountryId> candidates;  // post-disambiguation
  bool empty_prediction = false;
  double area_km2 = 0.0;
  std::optional<geo::LatLon> centroid;
  double nearest_landmark_km = 0.0;
  bool iclab_accepted = false;
  /// Fault telemetry of this proxy's campaign.
  measure::CampaignStats campaign;
  /// Tunnel RTT drifted past tolerance after a mid-campaign reconnect;
  /// the eta correction may be stale for this row.
  bool tunnel_flagged = false;

  // --- Byzantine diagnostics (DESIGN.md §11) ---
  /// Constraints the locator derived from the observations (0 for
  /// locators without subset semantics, e.g. Spotter).
  std::size_t constraints_total = 0;
  /// Of those, how many joined the winning consistent coalition.
  std::size_t constraints_used = 0;
  /// Per-observation participation, parallel to `observations`; empty
  /// when the locator has no subset semantics.
  std::vector<bool> landmark_used;
  /// The consistent subset was suspiciously small (agreement below
  /// AuditConfig::byzantine_min_agreement): either several landmarks
  /// lied to this campaign, or the proxy's own timing was manipulated.
  bool byzantine = false;

  /// Fraction of constraints in the winning coalition (1 when there
  /// were none to disagree about).
  double agreement() const noexcept {
    return constraints_total
               ? static_cast<double>(constraints_used) /
                     static_cast<double>(constraints_total)
               : 1.0;
  }
};

struct AuditReport {
  std::shared_ptr<const grid::Grid> grid;
  std::vector<ProxyAuditRow> rows;
  measure::EtaEstimate eta;
  /// Per-run fault totals across every proxy campaign.
  measure::CampaignStats campaign_totals;
  /// Plan-cache counters at the end of the run (cumulative over the
  /// Auditor's lifetime — the cache persists across runs). A healthy
  /// audit shows one miss per distinct landmark and hits everywhere else;
  /// nonzero evictions mean the cache capacity is under-sized for the
  /// constellation.
  grid::CapPlanCache::Stats plan_cache;
  /// Process-wide metrics snapshot taken at the end of the run (empty
  /// when telemetry was disabled). Cumulative across the process, like
  /// the registry itself; the deterministic subset (Clock::
  /// kDeterministic) is byte-identical across thread counts — see
  /// obs::Snapshot::to_json(false).
  obs::Snapshot telemetry;
  /// Per-landmark exclusion tallies across every subset solve of this
  /// run, folded from the rows in host-index order (thread-count
  /// independent). Empty when the algorithm has no subset semantics.
  mlat::SuspicionTable suspicion;
  /// Per-landmark drift watchdog state (measure/drift.hpp), indexed by
  /// landmark id: EWMA of the residual between each observed delay and
  /// the landmark's calibrated prediction at the distance to the
  /// verdict centroid, folded in host-index order.
  std::vector<measure::DriftEntry> drift;
  /// Landmarks whose drift EWMA crossed a threshold, ascending by id.
  std::vector<std::size_t> drift_flagged;
  /// Landmarks flagged by either signal — exclusion frequency over the
  /// config thresholds, or a drift watchdog trip — ascending by id.
  std::vector<std::size_t> suspicious_landmarks;
};

/// The §6 audit pipeline. Its per-proxy work is two passes over
/// caller-owned slots, campaign_pass then solve_pass: run() drives both
/// over a fleet, and the always-on service (src/serve) drives them from
/// its bootstrap (both) and restore (the solve pass).
class Auditor {
 public:
  /// Throws InvalidArgument, naming the field, when `config` fails
  /// AuditConfig::validate, before anything is built. Fits the
  /// calibration families the audit reads (plain CBG for the drift
  /// watchdog, plus the algorithm's own) on the config's workers, so no
  /// run pays for a fit and no family it never reads is fitted.
  Auditor(measure::Testbed& bed, AuditConfig config = {});

  /// Audit every host of the fleet: register → eta → campaign pass →
  /// solve pass, then the batch-only AS//24 grouping join, the run-level
  /// ledgers and the verdict journal events.
  AuditReport run(const world::Fleet& fleet);

  const grid::Grid& grid() const noexcept { return *grid_; }
  const grid::Region& plausibility_mask() const noexcept { return mask_; }
  /// Built from the config's algorithm, with the plan cache and (when the
  /// schedule is enabled) the refine context attached. Shared read-only
  /// across worker threads.
  const algos::Geolocator& locator() const noexcept { return *locator_; }
  const grid::CapPlanCache& plan_cache() const noexcept {
    return plan_cache_;
  }

  /// Region of one country on the audit grid (cached lazily;
  /// warm_countries() builds every claimed country before a fan-out,
  /// after which worker threads only read the cache).
  const grid::Region& country_region(world::CountryId id);

  /// Per-landmark minimum distances from the country's region, indexed
  /// by landmark id — exactly country_region(id).distance_from_km(lm)
  /// for every landmark, computed in one region pass and cached under
  /// the same warm-then-read discipline as country_region. Feeds the
  /// ICLab checker's table overload.
  std::span<const double> country_landmark_km(world::CountryId id);

  /// Build the country caches for these claimed countries: the regions
  /// in one serial raster pass, then each missing landmark table in its
  /// own task on the config's workers. Call from one thread, before any
  /// fan-out that assesses them.
  void warm_countries(std::span<const world::CountryId> ids);

  /// Register the measurement client on the simulated network. The
  /// network deals host ids (and per-host RNG streams) in registration
  /// order, so the client goes first and proxies follow in index order.
  netsim::HostId register_client();
  /// Register one proxy host and open its tunnel from `client`.
  netsim::ProxySession open_tunnel(netsim::HostId client,
                                   const world::ProxyHost& host);
  /// A fresh row carrying host `index`'s identity and claim.
  ProxyAuditRow new_row(std::size_t index,
                        const world::ProxyHost& host) const;

  // ---- the per-proxy passes ----

  /// One proxy's place in a pass; the caller owns the row and all the
  /// slot points at. Null `prober`, `memo` or `jseq`: keep no prober
  /// after the campaign, solve with locate instead of capturing a memo
  /// with locate_memo, journal nothing. The campaign pass writes
  /// `continent` (phase 1's pick); both passes add to `wall_us` while
  /// metrics or the journal are on.
  struct ProxySlot {
    ProxyAuditRow* row = nullptr;
    netsim::ProxySession* session = nullptr;
    std::optional<measure::ProxyProber>* prober = nullptr;
    std::unique_ptr<algos::LocatorMemo>* memo = nullptr;
    std::uint32_t* jseq = nullptr;
    world::Continent continent = world::Continent::kEurope;
    double wall_us = 0.0;
  };

  /// Per slot, on the config's workers: a lane seeded by
  /// proxy_seed(seed, row->host_index), a prober on the slot's session
  /// at fleet-wide `eta`, and the two-phase campaign (observations,
  /// campaign stats, tunnel flag, campaign event). Thread-count
  /// independent: a row depends only on its host index.
  void campaign_pass(std::span<ProxySlot> slots, double eta);
  /// Warm the rows' claimed countries, then solve_row per slot on the
  /// config's workers.
  void solve_pass(std::span<ProxySlot> slots);
  /// Locate `row.observations` (locate_memo into `*memo` when non-null;
  /// no solve without observations), then fill_and_assess. The claimed
  /// country must be warm.
  void solve_row(ProxyAuditRow& row, std::unique_ptr<algos::LocatorMemo>* memo,
                 std::uint32_t* jseq);
  /// Fill the row from a solve of `row.observations` (region, counts,
  /// used mask, Byzantine flag) and assess it (claim, data centers, area,
  /// centroid, nearest landmark, ICLab), journaling the constraint, lcs,
  /// refine and assess events. Leaves verdict_final == verdict_dc.
  void fill_and_assess(ProxyAuditRow& row, algos::GeoEstimate est,
                       std::uint32_t* jseq);
  /// Journal the row's final verdict event.
  void journal_verdict(const ProxyAuditRow& row, std::uint32_t& jseq) const;
  /// Report stage: grid, plan-cache counters, campaign totals, and the
  /// landmark suspicion and drift ledgers, folded over `report.rows` in
  /// row order.
  void summarize(AuditReport& report) const;

 private:
  AuditConfig config_;  // first: validated before any member is built
  measure::Testbed* bed_;
  std::shared_ptr<grid::Grid> grid_;
  grid::Region mask_;
  world::CountryRaster raster_;
  std::vector<std::optional<grid::Region>> country_regions_;
  std::vector<std::vector<double>> country_landmark_km_;
  /// Per-landmark rasterization plans shared by every proxy's locate();
  /// internally synchronized, persists across runs. Its table domain is
  /// mask_, so it must be declared after it.
  grid::CapPlanCache plan_cache_;
  /// Built from config_.algorithm; shared (const) across the worker
  /// threads, with per-landmark geometry served by plan_cache_.
  std::unique_ptr<algos::Geolocator> locator_;
  /// Coarse grids + downsampled mask of config_.refine; shared
  /// read-only by the workers. Engaged only when the schedule is
  /// enabled.
  std::optional<mlat::RefineContext> refine_ctx_;
  algos::IclabChecker iclab_;

  /// campaign_pass's per-proxy body; returns phase 1's continent.
  world::Continent measure_proxy(ProxyAuditRow& row,
                                 measure::ProxyProber& prober,
                                 netsim::Lane& lane,
                                 std::uint32_t* jseq) const;
  void apply_as_grouping(std::vector<ProxyAuditRow>& rows,
                         const world::Fleet& fleet) const;
};

/// Final-verdict tallies: the batch verdict counters and summary event
/// and the service's serve_summary event all count through this.
struct VerdictTally {
  std::size_t credible = 0;
  std::size_t uncertain = 0;
  std::size_t false_ = 0;
  std::size_t empty_predictions = 0;
  std::size_t byzantine = 0;
  std::size_t tunnel_flagged = 0;
};
VerdictTally tally_verdicts(std::span<const ProxyAuditRow> rows);

// ---- aggregation helpers used by the figure benches ----

/// Fig. 17 detailed categories.
struct AssessmentBreakdown {
  std::size_t credible = 0;
  std::size_t country_uncertain_continent_credible = 0;
  std::size_t country_and_continent_uncertain = 0;
  std::size_t country_false_continent_credible = 0;
  std::size_t country_false_continent_uncertain = 0;
  std::size_t continent_false = 0;
  std::size_t total() const noexcept {
    return credible + country_uncertain_continent_credible +
           country_and_continent_uncertain +
           country_false_continent_credible +
           country_false_continent_uncertain + continent_false;
  }
};

/// Aggregate rows into Fig. 17's categories. `use_disambiguated` selects
/// verdict_final (true) or verdict_raw (false).
AssessmentBreakdown breakdown(std::span<const ProxyAuditRow> rows,
                              bool use_disambiguated);

/// Per-provider honesty: fraction of claims whose region overlaps the
/// claimed country at all (credible or uncertain), and strict fraction
/// (credible only). Keys are provider names in first-seen order.
struct ProviderHonesty {
  std::string provider;
  std::size_t n = 0;
  std::size_t credible = 0;
  std::size_t uncertain = 0;
  std::size_t false_ = 0;
  double generous() const noexcept {
    return n ? static_cast<double>(credible + uncertain) / n : 0.0;
  }
  double strict() const noexcept {
    return n ? static_cast<double>(credible) / n : 0.0;
  }
};
std::vector<ProviderHonesty> honesty_by_provider(
    std::span<const ProxyAuditRow> rows, bool use_disambiguated);

}  // namespace ageo::assess
