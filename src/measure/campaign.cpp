#include "measure/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace ageo::measure {

void CampaignConfig::validate() const {
  // Comparisons are written so that NaN fails them.
  detail::require(retry.max_attempts > 0,
                  "campaign.retry.max_attempts must be > 0");
  detail::require(retry.backoff_base_rounds >= 0,
                  "campaign.retry.backoff_base_rounds must be >= 0");
  detail::require(retry.backoff_factor >= 1.0 &&
                      std::isfinite(retry.backoff_factor),
                  "campaign.retry.backoff_factor must be finite and >= 1");
  detail::require(retry.backoff_cap_rounds >= retry.backoff_base_rounds,
                  "campaign.retry.backoff_cap_rounds must be >= "
                  "backoff_base_rounds");
  detail::require(retry.campaign_retry_budget >= 0,
                  "campaign.retry.campaign_retry_budget must be >= 0");
  breaker.validate();
  detail::require(tunnel.failure_streak_for_check > 0,
                  "campaign.tunnel.failure_streak_for_check must be > 0");
  detail::require(tunnel.reconnect_attempts >= 0,
                  "campaign.tunnel.reconnect_attempts must be >= 0");
  detail::require(tunnel.reconnect_wait_rounds >= 0,
                  "campaign.tunnel.reconnect_wait_rounds must be >= 0");
  detail::require(tunnel.rtt_drift_tolerance >= 1.0 &&
                      std::isfinite(tunnel.rtt_drift_tolerance),
                  "campaign.tunnel.rtt_drift_tolerance must be finite and "
                  ">= 1");
  detail::require(tunnel.self_ping_samples > 0,
                  "campaign.tunnel.self_ping_samples must be > 0");
}

CampaignEngine::CampaignEngine(RichProbeFn probe, CampaignConfig config,
                               BreakerBoard* shared_board)
    : probe_(std::move(probe)), config_(config) {
  config_.validate();
  detail::require(static_cast<bool>(probe_),
                  "CampaignEngine: probe must be callable");
  if (shared_board) {
    board_ = shared_board;
  } else {
    owned_board_ = std::make_unique<BreakerBoard>(config_.breaker);
    board_ = owned_board_.get();
  }
}

CampaignEngine::CampaignEngine(ProbeFn probe, CampaignConfig config,
                               BreakerBoard* shared_board)
    : CampaignEngine(lift_probe(std::move(probe)), config, shared_board) {}

void CampaignEngine::set_active_filter(
    std::function<bool(std::size_t)> is_active) {
  active_ = std::move(is_active);
}

void CampaignEngine::set_round_hook(std::function<void()> hook) {
  round_hook_ = std::move(hook);
}

void CampaignEngine::attach_tunnel(ProxyProber& prober) {
  tunnel_ = &prober;
  tunnel_baseline_rtt_ms_ = prober.tunnel_rtt_ms();
}

int CampaignEngine::retries_left() const noexcept {
  return std::max(0, config_.retry.campaign_retry_budget - retries_used_);
}

void CampaignEngine::advance_rounds(int n) {
  if (n <= 0) return;
  board_->tick(static_cast<std::uint64_t>(n));
  stats_.rounds += static_cast<std::uint64_t>(n);
  if (round_hook_)
    for (int i = 0; i < n; ++i) round_hook_();
}

ProbeReply CampaignEngine::raw_probe(std::size_t landmark_id) {
  if (active_ && !active_(landmark_id)) {
    ++stats_.gated_skips;
    return {ProbeOutcome::kGatedInactive, 0.0};
  }
  if (!board_->allows(landmark_id)) {
    ++stats_.breaker_skips;
    return {ProbeOutcome::kBreakerOpen, 0.0};
  }
  if (board_->in_half_open(landmark_id)) ++stats_.half_open_probes;
  ProbeReply r = probe_(landmark_id);
  ++stats_.probes_sent;
  if (r.measured()) {
    // Simulated RTT — seed-derived, deterministic across thread counts.
    AGEO_HIST("measure.rtt_ms", r.rtt_ms, 0.5, 4096.0);
    if (r.outcome == ProbeOutcome::kOk)
      ++stats_.ok;
    else
      ++stats_.refused_measured;
    board_->record_success(landmark_id);
    timeout_streak_ = 0;
    return r;
  }
  // A drop is an adversarial act by the landmark; a timeout is honest
  // congestion/outage. Indistinguishable to a real client, so both feed
  // the retry loop, the breaker and the tunnel-check streak identically
  // — only the ledger differs (DESIGN.md §11).
  if (r.outcome == ProbeOutcome::kDropped)
    ++stats_.dropped;
  else
    ++stats_.timeouts;
  ++timeout_streak_;
  // When the tunnel itself is down the landmark is blameless: do not
  // feed its breaker, let the tunnel check below handle the outage.
  const bool tunnel_down = tunnel_ && !tunnel_->session().alive();
  if (!tunnel_down && board_->record_failure(landmark_id))
    ++stats_.breaker_trips;
  maybe_check_tunnel();
  return r;
}

void CampaignEngine::maybe_check_tunnel() {
  if (!tunnel_ ||
      timeout_streak_ < config_.tunnel.failure_streak_for_check)
    return;
  timeout_streak_ = 0;
  if (tunnel_->session().alive()) return;  // landmarks, not the tunnel
  ++stats_.tunnel_drops;
  for (int a = 0; a < config_.tunnel.reconnect_attempts; ++a) {
    advance_rounds(config_.tunnel.reconnect_wait_rounds);
    if (!tunnel_->session().reconnect()) continue;
    ++stats_.tunnel_reconnects;
    // The tunnel is back; the client-proxy leg may have been re-routed,
    // so re-estimate it and flag the row when it drifted.
    auto fresh = tunnel_->retake_self_ping(config_.tunnel.self_ping_samples);
    if (fresh && tunnel_baseline_rtt_ms_ > 0.0) {
      double ratio = *fresh / tunnel_baseline_rtt_ms_;
      if (ratio > config_.tunnel.rtt_drift_tolerance ||
          ratio < 1.0 / config_.tunnel.rtt_drift_tolerance) {
        ++stats_.tunnel_drift_flags;
        tunnel_flagged_ = true;
      }
    }
    return;
  }
  // Still down after the bounded loop; subsequent probes keep timing
  // out and the next streak re-enters this path.
}

ProbeReply CampaignEngine::probe(std::size_t landmark_id) {
  const auto retryable = [](ProbeOutcome o) {
    return o == ProbeOutcome::kTimeout || o == ProbeOutcome::kDropped;
  };
  ProbeReply r = raw_probe(landmark_id);
  if (!retryable(r.outcome)) return r;
  int backoff = config_.retry.backoff_base_rounds;
  for (int attempt = 1; attempt < config_.retry.max_attempts; ++attempt) {
    if (retries_used_ >= config_.retry.campaign_retry_budget) {
      ++stats_.budget_denied;
      if (config_.retry.abort_on_budget_exhausted)
        throw CampaignAborted(
            "campaign retry budget exhausted at landmark " +
            std::to_string(landmark_id));
      break;
    }
    ++retries_used_;
    ++stats_.retries;
    advance_rounds(backoff);
    // Capped in double before the cast: a large factor would overflow
    // int otherwise.
    backoff = static_cast<int>(
        std::min(static_cast<double>(config_.retry.backoff_cap_rounds),
                 std::ceil(backoff * config_.retry.backoff_factor)));
    r = raw_probe(landmark_id);
    if (!retryable(r.outcome)) return r;
  }
  if (retryable(r.outcome)) {
    ++stats_.retry_exhausted;
    r.outcome = ProbeOutcome::kRetryExhausted;
  }
  return r;
}

std::optional<double> CampaignEngine::min_probe(std::size_t landmark_id,
                                                int attempts) {
  std::optional<double> best;
  for (int i = 0; i < attempts; ++i) {
    ProbeReply r = probe(landmark_id);
    if (r.measured() && (!best || r.rtt_ms < *best)) best = r.rtt_ms;
    // An open breaker or an epoch gate will not change within this
    // volley; stop hammering.
    if (r.outcome == ProbeOutcome::kBreakerOpen ||
        r.outcome == ProbeOutcome::kGatedInactive)
      break;
  }
  advance_rounds(1);
  return best;
}

std::size_t CampaignEngine::prune_breakers(
    const std::function<bool(std::size_t)>& keep) {
  return board_->prune(keep);
}

TwoPhaseResult two_phase_measure(const Testbed& bed, CampaignEngine& engine,
                                 Rng& rng, const TwoPhaseConfig& cfg) {
  AGEO_SPAN("measure", "two_phase.campaign");
  AGEO_COUNT("measure.two_phase.campaign_runs");
  cfg.validate();
  TwoPhaseResult result;
  const auto& landmarks = bed.landmarks();

  // ---- Phase 1: three anchors per continent, engine-managed ----
  double best_delay = std::numeric_limits<double>::infinity();
  for (std::size_t cont = 0; cont < world::kContinentCount; ++cont) {
    auto continent = static_cast<world::Continent>(cont);
    std::vector<std::size_t> pool;
    for (std::size_t a : bed.anchor_ids())
      if (landmarks[a].continent == continent) pool.push_back(a);
    int want = std::min<int>(cfg.anchors_per_continent,
                             static_cast<int>(pool.size()));
    for (int k = 0; k < want; ++k) {
      std::size_t pick =
          rng.uniform_index(pool.size() - static_cast<std::size_t>(k));
      std::swap(pool[pick], pool[pool.size() - 1 - static_cast<std::size_t>(k)]);
      std::size_t id = pool[pool.size() - 1 - static_cast<std::size_t>(k)];
      auto m = engine.min_probe(id, 1);
      if (!m) continue;
      result.phase1.push_back({id, landmarks[id].location, *m / 2.0});
      if (*m < best_delay) {
        best_delay = *m;
        result.continent = continent;
      }
    }
  }

  // ---- Phase 2: 25 landmarks on the chosen continent, with adaptive
  // replacement — a landmark that exhausts its retries (or is breaker-
  // open / gated) is substituted by a fresh draw from the remaining
  // pool until the observation count is met or the pool is dry. ----
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < landmarks.size(); ++i)
    if (landmarks[i].continent == result.continent) pool.push_back(i);
  std::size_t want = std::min<std::size_t>(
      static_cast<std::size_t>(cfg.phase2_landmarks), pool.size());
  // Incremental Fisher–Yates: draws beyond the first `want` are the
  // replacement landmarks, still uniform over the untouched remainder.
  std::size_t cursor = 0;
  while (result.observations.size() < want && cursor < pool.size()) {
    std::size_t pick = cursor + rng.uniform_index(pool.size() - cursor);
    std::swap(pool[cursor], pool[pick]);
    std::size_t id = pool[cursor];
    const bool is_replacement = cursor >= want;
    ++cursor;
    if (is_replacement) engine.count_replacement();
    auto m = engine.min_probe(id, cfg.attempts);
    if (!m) continue;
    result.observations.push_back({id, landmarks[id].location, *m / 2.0});
    result.landmark_ids.push_back(id);
  }
  result.stats = engine.stats();
  return result;
}

}  // namespace ageo::measure
