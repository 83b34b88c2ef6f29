// The resilient campaign engine.
//
// Wraps any probe with the fault policies of probe_policy.hpp: per-probe
// retry with capped exponential backoff under a per-campaign budget,
// per-landmark circuit breakers (shareable across every proxy of one
// Auditor::run), epoch gating against a live landmark set, and proxy-
// tunnel health — a run of timeouts triggers a tunnel-liveness check,
// a bounded reconnect loop, and a re-taken self-ping whose drift beyond
// tolerance flags the campaign. The two_phase_measure overload below
// adds adaptive landmark replacement: when a selected phase-2 landmark
// exhausts its retries, a substitute is drawn from the remaining pool
// until the requested observation count is met or the pool is dry.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "measure/probe_policy.hpp"
#include "measure/proxy_measure.hpp"
#include "measure/two_phase.hpp"

namespace ageo::measure {

struct TunnelPolicy {
  /// Consecutive timeouts (across landmarks) before suspecting the
  /// tunnel rather than the landmarks.
  int failure_streak_for_check = 4;
  /// Bounded reconnect loop: attempts, and rounds waited between them.
  int reconnect_attempts = 8;
  int reconnect_wait_rounds = 2;
  /// After a reconnect the self-ping is re-taken; a new tunnel-RTT
  /// estimate further than this factor from the original (either
  /// direction) flags the campaign row.
  double rtt_drift_tolerance = 1.5;
  int self_ping_samples = 3;
};

struct CampaignConfig {
  RetryPolicy retry;
  BreakerPolicy breaker;
  TunnelPolicy tunnel;

  /// The retry, breaker and tunnel rules: counts of tries, thresholds
  /// and samples >= 1, rounds and budgets >= 0, backoff_cap_rounds >=
  /// backoff_base_rounds, backoff_factor and rtt_drift_tolerance finite
  /// and >= 1. Throws InvalidArgument naming the field (as
  /// `campaign.<policy>.<field>`, its path in assess::AuditConfig).
  void validate() const;
};

/// One campaign's fault machinery around one probe. Construct per
/// target (per proxy); pass a shared BreakerBoard to persist breaker
/// state and the round clock across campaigns.
class CampaignEngine {
 public:
  CampaignEngine(RichProbeFn probe, CampaignConfig config = {},
                 BreakerBoard* shared_board = nullptr);
  CampaignEngine(ProbeFn probe, CampaignConfig config = {},
                 BreakerBoard* shared_board = nullptr);

  /// Refuse landmarks the predicate rejects (kGatedInactive) — wire to
  /// LandmarkService::is_active so campaigns spanning refresh() never
  /// record observations from decommissioned anchors.
  void set_active_filter(std::function<bool(std::size_t)> is_active);

  /// Called once per elapsed probe round — wire to
  /// netsim::Network::advance_round so simulated outages and rate
  /// limits march in step with the campaign.
  void set_round_hook(std::function<void()> hook);

  /// Enable tunnel-health management for a proxied campaign: dropped-
  /// tunnel detection, reconnect, self-ping re-take, drift flagging.
  void attach_tunnel(ProxyProber& prober);

  /// One policy-managed probe: breaker-gated, retried with backoff.
  ProbeReply probe(std::size_t landmark_id);

  /// Minimum of `attempts` managed probes (the paper keeps per-landmark
  /// minima), or nullopt when none measured. Advances one probe round.
  std::optional<double> min_probe(std::size_t landmark_id, int attempts);

  /// Drop breaker state for landmarks the predicate rejects; call after
  /// LandmarkService::refresh().
  std::size_t prune_breakers(const std::function<bool(std::size_t)>& keep);

  /// Count a substitute landmark drawn by adaptive replacement.
  void count_replacement() noexcept { ++stats_.replacements; }

  const CampaignStats& stats() const noexcept { return stats_; }
  BreakerBoard& board() noexcept { return *board_; }
  const BreakerBoard& board() const noexcept { return *board_; }
  /// True once a re-taken self-ping drifted beyond tolerance.
  bool tunnel_flagged() const noexcept { return tunnel_flagged_; }
  int retries_left() const noexcept;

 private:
  RichProbeFn probe_;
  CampaignConfig config_;
  std::unique_ptr<BreakerBoard> owned_board_;
  BreakerBoard* board_;
  std::function<bool(std::size_t)> active_;
  std::function<void()> round_hook_;
  ProxyProber* tunnel_ = nullptr;
  double tunnel_baseline_rtt_ms_ = 0.0;
  bool tunnel_flagged_ = false;
  int retries_used_ = 0;
  int timeout_streak_ = 0;
  CampaignStats stats_;

  ProbeReply raw_probe(std::size_t landmark_id);
  void advance_rounds(int n);
  void maybe_check_tunnel();
};

/// Run the two-phase procedure under the campaign engine. Identical to
/// the ProbeFn overload when nothing fails; under faults it retries,
/// breaks, and draws substitute phase-2 landmarks from the remaining
/// continental pool until the requested observation count is met or the
/// pool is dry. The engine's cumulative stats snapshot rides back on
/// TwoPhaseResult::stats.
TwoPhaseResult two_phase_measure(const Testbed& bed, CampaignEngine& engine,
                                 Rng& rng, const TwoPhaseConfig& cfg = {});

}  // namespace ageo::measure
