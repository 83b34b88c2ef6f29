// The Internet simulator.
//
// Substitutes for the live Internet as the paper's measurement substrate.
// Round-trip times decompose exactly the way the geolocation literature
// models them (paper §2):
//
//   RTT(a,b) = 2 * (route_km / fibre_speed + per_hop * hops)   propagation
//            + access(a) + access(b)                           last mile
//            + Q                                               queueing
//
// where route_km comes from hub routing (host -> nearest hub -> shortest
// hub-graph path -> host) with cable-slack inflation, and Q is sampled
// per measurement from an exponential whose mean grows with the
// congestion of every hub the path transits, plus rare heavy-tailed
// spikes. Distance and delay therefore correlate, but with exactly the
// circuitousness and congestion asymmetries that make world-scale
// geolocation hard.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "geo/latlon.hpp"
#include "geo/vec3.hpp"
#include "netsim/adversary.hpp"
#include "world/hubs.hpp"

namespace ageo::netsim {

using HostId = std::uint32_t;

struct HostProfile {
  geo::LatLon location;
  /// Access-network quality in (0, 1]: 1 = data-center, 0.4 = poor DSL.
  double net_quality = 1.0;
  /// Host answers ICMP echo.
  bool icmp_responds = true;
  /// Host accepts TCP connections on port 80 (otherwise it refuses with
  /// RST, which still reveals one round-trip, or blackholes if
  /// `filters_tcp` below).
  bool tcp_port80_open = true;
  /// Host silently drops TCP SYNs on uncommon ports.
  bool filters_uncommon_ports = false;
  /// Routers near this host emit ICMP time-exceeded (traceroute works).
  bool sends_time_exceeded = true;

  // --- transient-fault model (campaign robustness, paper §4.1-§4.2) ---
  /// Probability that any given block of `flap_duration_rounds` probe
  /// rounds is a full outage for this host (probes time out). The
  /// schedule is deterministic in (network seed, host, block), so a
  /// flapping host goes down and comes back at reproducible rounds.
  double flap_probability = 0.0;
  /// Length of one outage block, in probe rounds; 0 disables flapping.
  int flap_duration_rounds = 0;
  /// Probes (ICMP echo / TCP connect) this host answers per probe round
  /// before treating the rest as a probe storm and timing them out.
  /// 0 = unlimited.
  int rate_limit_per_round = 0;
};

struct LatencyParams {
  double fibre_speed_km_per_ms = 200.0;
  double local_inflation = 1.40;   // host <-> hub access circuit slack
  double direct_inflation = 1.70;  // short-haul direct routes
  double direct_threshold_km = 900.0;
  double per_hop_ms = 0.15;        // switching/serialization per hub edge
  double access_base_ms = 0.25;    // minimum last-mile delay, each side
  double access_quality_ms = 2.5;  // extra last-mile delay at quality 0
  double congestion_scale = 1.1;   // mean queueing per unit hub congestion
  double spike_probability = 0.08; // heavy-tail congestion events
  double spike_mu = 3.0;           // lognormal parameters of spikes (ms)
  double spike_sigma = 0.9;
  double jitter_ms = 0.12;         // gaussian measurement jitter (stddev)
  double pair_inflation_max = 1.25;// persistent per-pair route detours
};

/// TCP connect outcomes (paper §4.2: "connection refused" still measures
/// one round trip; other errors or timeouts are discarded).
enum class ConnectOutcome : std::uint8_t {
  kAccepted,   // three-way handshake completed: one RTT measured
  kRefused,    // RST after one round trip: RTT still measured
  kTimeout,    // filtered: no information
  kDropped,    // silently discarded by an adversarial landmark: no
               // information, but distinguishable in simulation so
               // campaign stats can separate selective drops from
               // honest congestion (DESIGN.md §11)
};

struct ConnectResult {
  ConnectOutcome outcome = ConnectOutcome::kTimeout;
  /// Time the connect() call took, ms; meaningful for kAccepted/kRefused.
  double elapsed_ms = 0.0;
};

class Network;

/// An independent measurement timeline over one shared Network: its own
/// queueing/jitter RNG stream, its own probe-round clock, and its own
/// per-host rate-limit counters. The topology (hosts, routes, base RTTs,
/// outage schedules) stays shared and read-only.
///
/// Concurrent measurement campaigns each drive a private Lane, so their
/// stochastic draws and round clocks cannot interleave: a campaign's
/// measurements depend only on its lane seed and its own probe order,
/// which is what makes a parallel audit bit-identical to a serial one.
/// Lanes are created by Network::make_lane and passed to the Lane-taking
/// parameters below; a null Lane selects the network's built-in default
/// lane (the classic single-timeline semantics).
///
/// A Lane may only be used by one thread at a time; distinct lanes over
/// one Network are safe to drive concurrently.
class Lane {
 public:
  /// This lane's probe-round clock.
  std::uint64_t round() const noexcept { return round_; }

 private:
  friend class Network;
  explicit Lane(std::uint64_t seed) noexcept
      : rng_(seed, "netsim/measurements"), seed_(seed) {}

  Rng rng_;
  std::uint64_t seed_ = 0;
  std::uint64_t round_ = 0;
  /// Probes answered per host this round; grown on demand.
  std::vector<std::uint32_t> probes_this_round_;
  /// Ordinal of adversarial draws on this lane (drop decisions).
  /// Incremented only for probes of hosts that carry an
  /// AdversaryProfile, so honest hosts' draw sequences never move.
  std::uint64_t adversary_draws_ = 0;
};

class Network {
 public:
  Network(const world::HubGraph& hubs, std::uint64_t seed,
          LatencyParams params = {});

  HostId add_host(const HostProfile& profile);
  const HostProfile& host(HostId id) const;
  std::size_t host_count() const noexcept { return hosts_.size(); }

  /// Deterministic expected RTT: propagation + per-hop + access, without
  /// queueing or jitter. The physical floor every measurement exceeds.
  double base_rtt_ms(HostId a, HostId b) const;

  /// One measured raw path RTT, ms (>= base, plus queueing and jitter).
  /// Queueing/jitter draws come from `lane` (default lane when null).
  double sample_rtt_ms(HostId a, HostId b, Lane* lane = nullptr);
  /// The minimum of `k` >= 1 sample_rtt_ms(a, b, lane) calls, bit for
  /// bit and with the same draws in the same order, but with the pair's
  /// deterministic floor (base RTT and congestion mean) computed once
  /// instead of k times.
  double min_sample_rtt_ms(HostId a, HostId b, int k, Lane* lane = nullptr);

  /// ICMP echo; nullopt if the target ignores pings.
  std::optional<double> icmp_ping_ms(HostId from, HostId to,
                                     Lane* lane = nullptr);

  /// TCP connect to `port`. Port 80/443 always elicit a response unless
  /// the host filters; uncommon ports may be silently dropped.
  ConnectResult tcp_connect(HostId from, HostId to, std::uint16_t port,
                            Lane* lane = nullptr);

  /// Hop count a traceroute would see, or nullopt when intermediate
  /// routers suppress time-exceeded messages.
  std::optional<int> traceroute_hops(HostId from, HostId to,
                                     const Lane* lane = nullptr);

  /// The inflated route length used for the pair, km (exposed for tests
  /// and ablation benches).
  double route_km(HostId a, HostId b) const;

  // --- probe rounds & transient faults ---
  /// Advance `lane`'s probe-round clock by `n` (default lane when null).
  /// A "round" is one volley of a measurement campaign; outage blocks
  /// and rate limits are expressed in rounds. Per-round rate-limit
  /// counters of that lane reset here.
  void advance_round(int n = 1, Lane* lane = nullptr);
  /// The default lane's probe-round clock (use Lane::round for others).
  std::uint64_t round() const noexcept { return default_lane_.round_; }

  /// An independent measurement timeline seeded from `lane_seed`. The
  /// returned Lane references no Network state and may outlive probes on
  /// other lanes, but not the Network itself.
  Lane make_lane(std::uint64_t lane_seed) const { return Lane(lane_seed); }

  /// Whether the host answers probes in `lane`'s current round (flap
  /// schedule and any explicit outage window). Deterministic in
  /// (seed, host, round).
  bool host_up(HostId id, const Lane* lane = nullptr) const;

  /// Reconfigure a host's flap model after creation (tests, fault
  /// injection into an existing constellation).
  void set_flap(HostId id, double probability, int duration_rounds);
  /// Explicit outage: the host is down for rounds in [from, to).
  void set_outage_window(HostId id, std::uint64_t from, std::uint64_t to);
  /// Reconfigure a host's per-round probe budget (0 = unlimited).
  void set_rate_limit(HostId id, int per_round);

  // --- Byzantine landmark adversaries (DESIGN.md §11) ---
  /// Attach (or replace) an adversary profile: probes OF this host get
  /// manipulated delays / selective drops. Validates the profile first;
  /// on throw the host keeps its previous state.
  void set_adversary(HostId id, const AdversaryProfile& profile);
  /// Restore honest behaviour.
  void clear_adversary(HostId id);
  /// The host's profile, or null when honest.
  const AdversaryProfile* adversary(HostId id) const;
  /// Number of hosts currently carrying a profile.
  std::size_t adversary_count() const noexcept;

  const LatencyParams& params() const noexcept { return params_; }

 private:
  const world::HubGraph* hubs_;
  LatencyParams params_;
  std::uint64_t seed_;
  std::vector<HostProfile> hosts_;
  // Host geometry, written once by add_host and read-only afterwards:
  // the nearest hub, the unit vector of the location and the access
  // leg's great-circle km to that hub (before local_inflation).
  std::vector<std::size_t> nearest_hub_;
  std::vector<geo::Vec3> host_vec_;
  std::vector<double> hub_leg_km_;
  /// The built-in timeline used when callers pass no Lane.
  Lane default_lane_;
  /// Explicit outage windows [from, to) per host; (0, 0) = none.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> outage_window_;
  /// Adversary profiles per host (nullopt = honest); sized lazily so
  /// the honest fast path is one empty() check.
  std::vector<std::optional<AdversaryProfile>> adversaries_;

  /// Counts the probe against the target's per-round budget in `lane`;
  /// true when the budget is exceeded and the probe must time out.
  bool rate_limited(HostId to, Lane& lane);
  /// The delay an adversarial host reports for a probe from `from` in
  /// `lane`'s current round, or nullopt when the probe is selectively
  /// dropped. Hash-keyed draws only — never consumes lane RNG state
  /// beyond what the honest path would (the honest sample is still
  /// drawn for shift/scale attacks so downstream draw sequences match;
  /// fake-target replies skip it, which is deterministic per lane).
  std::optional<double> adversarial_rtt_ms(HostId from, HostId to, Lane& lane,
                                           const AdversaryProfile& adv);
  void check_fault_model(const HostProfile& p) const;
  double access_ms(HostId h) const;
  double pair_inflation(HostId a, HostId b) const;
  double path_congestion(HostId a, HostId b) const;
  /// One sample over a pair a != b: `base` (base_rtt_ms) plus the
  /// queueing, spike and jitter draws from `rng`, in that order.
  double queued_rtt_ms(double base, double congestion_mean, Rng& rng) const;
  /// Great-circle km between two hosts, from the cached vectors.
  double gc_km(HostId a, HostId b) const;
  /// route_km of a pair a != b whose great-circle km is `gc`, so callers
  /// that also need the hop count compute `gc` once.
  double routed_km(HostId a, HostId b, double gc) const;
  int path_hops(HostId a, HostId b, double gc) const;
  void check_host(HostId id) const;
};

}  // namespace ageo::netsim
