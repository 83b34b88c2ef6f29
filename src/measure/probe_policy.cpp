#include "measure/probe_policy.hpp"

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace ageo::measure {

const char* to_string(ProbeOutcome outcome) noexcept {
  switch (outcome) {
    case ProbeOutcome::kOk:
      return "ok";
    case ProbeOutcome::kRefusedMeasured:
      return "refused-measured";
    case ProbeOutcome::kTimeout:
      return "timeout";
    case ProbeOutcome::kRetryExhausted:
      return "retry-exhausted";
    case ProbeOutcome::kBreakerOpen:
      return "breaker-open";
    case ProbeOutcome::kGatedInactive:
      return "gated-inactive";
    case ProbeOutcome::kDropped:
      return "dropped";
  }
  return "unknown";
}

RichProbeFn lift_probe(ProbeFn inner) {
  detail::require(static_cast<bool>(inner),
                  "lift_probe: probe must be callable");
  return [inner = std::move(inner)](std::size_t id) -> ProbeReply {
    auto m = inner(id);
    if (!m) return {ProbeOutcome::kTimeout, 0.0};
    return {ProbeOutcome::kOk, *m};
  };
}

void CampaignStats::merge(const CampaignStats& other) noexcept {
  probes_sent += other.probes_sent;
  ok += other.ok;
  refused_measured += other.refused_measured;
  timeouts += other.timeouts;
  dropped += other.dropped;
  retries += other.retries;
  retry_exhausted += other.retry_exhausted;
  budget_denied += other.budget_denied;
  breaker_trips += other.breaker_trips;
  breaker_skips += other.breaker_skips;
  half_open_probes += other.half_open_probes;
  gated_skips += other.gated_skips;
  replacements += other.replacements;
  tunnel_drops += other.tunnel_drops;
  tunnel_reconnects += other.tunnel_reconnects;
  tunnel_drift_flags += other.tunnel_drift_flags;
  rounds += other.rounds;
}

void publish_campaign_stats([[maybe_unused]] const CampaignStats& stats) {
  AGEO_COUNTER_ADD("measure.campaign.probes_sent", stats.probes_sent);
  AGEO_COUNTER_ADD("measure.campaign.ok", stats.ok);
  AGEO_COUNTER_ADD("measure.campaign.refused_measured",
                   stats.refused_measured);
  AGEO_COUNTER_ADD("measure.campaign.timeouts", stats.timeouts);
  AGEO_COUNTER_ADD("measure.campaign.dropped", stats.dropped);
  AGEO_COUNTER_ADD("measure.campaign.retries", stats.retries);
  AGEO_COUNTER_ADD("measure.campaign.retry_exhausted", stats.retry_exhausted);
  AGEO_COUNTER_ADD("measure.campaign.budget_denied", stats.budget_denied);
  AGEO_COUNTER_ADD("measure.campaign.breaker_trips", stats.breaker_trips);
  AGEO_COUNTER_ADD("measure.campaign.breaker_skips", stats.breaker_skips);
  AGEO_COUNTER_ADD("measure.campaign.half_open_probes",
                   stats.half_open_probes);
  AGEO_COUNTER_ADD("measure.campaign.gated_skips", stats.gated_skips);
  AGEO_COUNTER_ADD("measure.campaign.replacements", stats.replacements);
  AGEO_COUNTER_ADD("measure.campaign.tunnel_drops", stats.tunnel_drops);
  AGEO_COUNTER_ADD("measure.campaign.tunnel_reconnects",
                   stats.tunnel_reconnects);
  AGEO_COUNTER_ADD("measure.campaign.tunnel_drift_flags",
                   stats.tunnel_drift_flags);
  AGEO_COUNTER_ADD("measure.campaign.rounds", stats.rounds);
  AGEO_COUNT("measure.campaign.published");
}

void BreakerPolicy::validate() const {
  detail::require(failure_threshold > 0,
                  "campaign.breaker.failure_threshold must be > 0");
  detail::require(cooldown_rounds > 0,
                  "campaign.breaker.cooldown_rounds must be > 0");
}

BreakerBoard::BreakerBoard(BreakerPolicy policy) : policy_(policy) {
  policy_.validate();
}

bool BreakerBoard::allows(std::size_t landmark_id) const {
  auto it = entries_.find(landmark_id);
  if (it == entries_.end() || !it->second.open) return true;
  return clock_ >= it->second.open_until;  // half-open trial
}

bool BreakerBoard::is_open(std::size_t landmark_id) const {
  auto it = entries_.find(landmark_id);
  return it != entries_.end() && it->second.open &&
         clock_ < it->second.open_until;
}

bool BreakerBoard::in_half_open(std::size_t landmark_id) const {
  auto it = entries_.find(landmark_id);
  return it != entries_.end() && it->second.open &&
         clock_ >= it->second.open_until;
}

bool BreakerBoard::tracked(std::size_t landmark_id) const {
  return entries_.find(landmark_id) != entries_.end();
}

bool BreakerBoard::record_failure(std::size_t landmark_id) {
  Entry& e = entries_[landmark_id];
  ++e.consecutive_failures;
  if (e.open) {
    // A failed half-open trial: re-open for another cooldown.
    e.open_until =
        clock_ + static_cast<std::uint64_t>(policy_.cooldown_rounds);
    return true;
  }
  if (e.consecutive_failures >= policy_.failure_threshold) {
    e.open = true;
    e.open_until =
        clock_ + static_cast<std::uint64_t>(policy_.cooldown_rounds);
    return true;
  }
  return false;
}

void BreakerBoard::record_success(std::size_t landmark_id) {
  entries_.erase(landmark_id);
}

void BreakerBoard::drop(std::size_t landmark_id) {
  entries_.erase(landmark_id);
}

std::size_t BreakerBoard::prune(
    const std::function<bool(std::size_t)>& keep) {
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (!keep(it->first)) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

std::size_t BreakerBoard::open_count() const {
  std::size_t n = 0;
  for (const auto& [id, e] : entries_)
    if (e.open) ++n;
  return n;
}

}  // namespace ageo::measure
