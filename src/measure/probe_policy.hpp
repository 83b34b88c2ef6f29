// Probe outcomes and fault policies for resilient measurement campaigns.
//
// The paper's measurement substrate was hostile: landmarks filtered or
// timed out (§4.2), 12 anchors were decommissioned mid-experiment (§4.1),
// and proxy tunnels dropped mid-campaign. A bare ProbeFn collapses all of
// that into nullopt; this header gives every probe a structured outcome,
// a retry policy with capped exponential backoff and a per-campaign
// budget, and a per-landmark circuit breaker whose state can outlive one
// campaign (a board shared across CampaignEngines).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

namespace ageo::measure {

/// One probe of one landmark: returns the measured (possibly
/// proxy-corrected) round-trip time in ms, or nullopt when the
/// measurement failed and must be discarded.
using ProbeFn =
    std::function<std::optional<double>(std::size_t landmark_id)>;

/// How one probe of one landmark resolved.
enum class ProbeOutcome : std::uint8_t {
  kOk,              // handshake completed: RTT measured
  kRefusedMeasured, // RST after one round trip: RTT still measured (§4.2)
  kTimeout,         // filtered, rate-limited, or host in an outage
  kRetryExhausted,  // every attempt of the retry policy failed
  kBreakerOpen,     // circuit breaker open: probe not sent
  kGatedInactive,   // landmark not active this epoch: probe not sent
  kDropped,         // silently discarded by an adversarial landmark
                    // (netsim::ConnectOutcome::kDropped): behaves like a
                    // timeout for retries and breakers, but is counted
                    // separately so selective drops are distinguishable
                    // from honest congestion (DESIGN.md §11)
};

const char* to_string(ProbeOutcome outcome) noexcept;

struct ProbeReply {
  ProbeOutcome outcome = ProbeOutcome::kTimeout;
  /// Meaningful only when measured().
  double rtt_ms = 0.0;

  bool measured() const noexcept {
    return outcome == ProbeOutcome::kOk ||
           outcome == ProbeOutcome::kRefusedMeasured;
  }
};

/// A probe that reports how it resolved, not just whether.
using RichProbeFn = std::function<ProbeReply(std::size_t landmark_id)>;

/// Adapt a plain ProbeFn: nullopt becomes kTimeout (the plain interface
/// cannot distinguish finer failure modes).
RichProbeFn lift_probe(ProbeFn inner);

struct RetryPolicy {
  /// Total tries per probe, including the first attempt.
  int max_attempts = 3;
  /// Backoff before the first retry, in probe rounds; doubles (capped)
  /// for each further retry of the same probe.
  int backoff_base_rounds = 1;
  double backoff_factor = 2.0;
  int backoff_cap_rounds = 8;
  /// Retries (attempts beyond each probe's first) allowed per campaign.
  /// Once spent, failed probes resolve to kRetryExhausted immediately.
  int campaign_retry_budget = 200;
  /// Throw CampaignAborted instead of degrading when the budget runs
  /// out; off by default — campaigns prefer degraded data over none.
  bool abort_on_budget_exhausted = false;
};

struct BreakerPolicy {
  /// Consecutive failures that open a landmark's breaker.
  int failure_threshold = 3;
  /// Rounds an open breaker waits before allowing a half-open re-probe.
  int cooldown_rounds = 8;

  /// Both fields must be >= 1. Throws InvalidArgument naming the field
  /// (as `campaign.breaker.<field>`, its path in assess::AuditConfig).
  void validate() const;
};

/// Everything a campaign observed, aggregated. Rides on TwoPhaseResult
/// and AuditReport so degradation is observable instead of silent.
struct CampaignStats {
  std::uint64_t probes_sent = 0;      // probes actually put on the wire
  std::uint64_t ok = 0;
  std::uint64_t refused_measured = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t dropped = 0;          // adversarial selective drops
  std::uint64_t retries = 0;          // attempts beyond each probe's first
  std::uint64_t retry_exhausted = 0;  // probes that failed every attempt
  std::uint64_t budget_denied = 0;    // retries skipped: budget exhausted
  std::uint64_t breaker_trips = 0;    // breaker open/re-open events
  std::uint64_t breaker_skips = 0;    // probes not sent: breaker open
  std::uint64_t half_open_probes = 0; // trial probes after cooldown
  std::uint64_t gated_skips = 0;      // probes not sent: landmark inactive
  std::uint64_t replacements = 0;     // substitute landmarks drawn
  std::uint64_t tunnel_drops = 0;     // dropped-tunnel detections
  std::uint64_t tunnel_reconnects = 0;
  std::uint64_t tunnel_drift_flags = 0; // re-ping drifted past tolerance
  std::uint64_t rounds = 0;           // probe rounds this campaign

  std::uint64_t measured() const noexcept { return ok + refused_measured; }
  void merge(const CampaignStats& other) noexcept;
  friend bool operator==(const CampaignStats&,
                         const CampaignStats&) = default;
};

/// Add one campaign's stats to the process-wide metrics registry as
/// "measure.campaign.*" counters (the registry-backed view of
/// CampaignStats). Call once per campaign — the audit fan-out publishes
/// each proxy's per-row stats from the worker that measured it, and the
/// shard merge makes the totals independent of thread count. No-op when
/// metrics are disabled.
void publish_campaign_stats(const CampaignStats& stats);

/// Per-landmark circuit-breaker state plus the probe-round clock. One
/// board can be shared by several campaigns (CampaignEngine's
/// shared_board), so a landmark that went dark during proxy #3 is not
/// hammered again for proxies #4..#2269 until its cooldown elapses.
class BreakerBoard {
 public:
  explicit BreakerBoard(BreakerPolicy policy = {});

  const BreakerPolicy& policy() const noexcept { return policy_; }

  std::uint64_t clock() const noexcept { return clock_; }
  void tick(std::uint64_t rounds = 1) noexcept { clock_ += rounds; }

  /// Whether a probe of this landmark may be sent now (breaker closed,
  /// or open with the cooldown elapsed — the half-open trial).
  bool allows(std::size_t landmark_id) const;
  /// Open and still cooling down.
  bool is_open(std::size_t landmark_id) const;
  /// Open, cooldown elapsed: the next probe is a half-open trial.
  bool in_half_open(std::size_t landmark_id) const;
  /// Whether any failure state is recorded for this landmark.
  bool tracked(std::size_t landmark_id) const;

  /// Record a failed probe. Returns true when this failure opened (or,
  /// from half-open, re-opened) the breaker.
  bool record_failure(std::size_t landmark_id);
  /// Record a measured probe: closes the breaker, forgets the landmark.
  void record_success(std::size_t landmark_id);

  /// Forget one landmark (e.g. decommissioned by the landmark service).
  void drop(std::size_t landmark_id);
  /// Forget every landmark `keep` rejects; returns how many were
  /// dropped. Call after LandmarkService::refresh so breaker state for
  /// removed landmarks does not leak across epochs.
  std::size_t prune(const std::function<bool(std::size_t)>& keep);

  /// Landmarks currently open (cooling down or awaiting trial).
  std::size_t open_count() const;

 private:
  struct Entry {
    int consecutive_failures = 0;
    bool open = false;
    std::uint64_t open_until = 0;  // clock at which half-open begins
  };
  BreakerPolicy policy_;
  std::uint64_t clock_ = 0;
  std::unordered_map<std::size_t, Entry> entries_;
};

}  // namespace ageo::measure
