#include "netsim/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "geo/geodesy.hpp"
#include "obs/obs.hpp"

namespace ageo::netsim {

namespace {

// Throws InvalidArgument naming `field` unless lo <= v <= hi and v is
// finite (a NaN would otherwise reach every simulated RTT).
void require_in(double v, double lo, double hi, const char* field) {
  if (!(std::isfinite(v) && v >= lo && v <= hi))
    throw InvalidArgument(std::string("Network: LatencyParams::") + field +
                          " is out of range or not finite");
}

const LatencyParams& checked(const LatencyParams& p) {
  constexpr double kMax = std::numeric_limits<double>::max();
  require_in(p.fibre_speed_km_per_ms, std::numeric_limits<double>::denorm_min(),
             kMax, "fibre_speed_km_per_ms");
  require_in(p.local_inflation, 1.0, kMax, "local_inflation");
  require_in(p.direct_inflation, 1.0, kMax, "direct_inflation");
  require_in(p.direct_threshold_km, 0.0, kMax, "direct_threshold_km");
  require_in(p.per_hop_ms, 0.0, kMax, "per_hop_ms");
  require_in(p.access_base_ms, 0.0, kMax, "access_base_ms");
  require_in(p.access_quality_ms, 0.0, kMax, "access_quality_ms");
  require_in(p.congestion_scale, 0.0, kMax, "congestion_scale");
  require_in(p.spike_probability, 0.0, 1.0, "spike_probability");
  require_in(p.spike_mu, -kMax, kMax, "spike_mu");
  require_in(p.spike_sigma, 0.0, kMax, "spike_sigma");
  require_in(p.jitter_ms, 0.0, kMax, "jitter_ms");
  require_in(p.pair_inflation_max, 1.0, kMax, "pair_inflation_max");
  return p;
}

}  // namespace

Network::Network(const world::HubGraph& hubs, std::uint64_t seed,
                 LatencyParams params)
    : hubs_(&hubs),
      params_(checked(params)),
      seed_(seed),
      default_lane_(seed) {}

HostId Network::add_host(const HostProfile& profile) {
  detail::require(geo::is_valid(profile.location),
                  "Network::add_host: invalid location");
  detail::require(profile.net_quality > 0.0 && profile.net_quality <= 1.0,
                  "Network::add_host: net_quality must be in (0, 1]");
  check_fault_model(profile);
  const geo::Vec3 v = geo::to_vec3(profile.location);
  const std::size_t hub = hubs_->nearest_hub(profile.location);
  hosts_.push_back(profile);
  nearest_hub_.push_back(hub);
  host_vec_.push_back(v);
  hub_leg_km_.push_back(
      geo::arc_distance_km(v, geo::to_vec3(hubs_->hub(hub).location)));
  outage_window_.emplace_back(0, 0);
  return static_cast<HostId>(hosts_.size() - 1);
}

void Network::check_fault_model(const HostProfile& p) const {
  detail::require(p.flap_probability >= 0.0 && p.flap_probability < 1.0,
                  "Network: flap_probability must be in [0, 1)");
  detail::require(p.flap_duration_rounds >= 0,
                  "Network: flap_duration_rounds must be >= 0");
  detail::require(p.rate_limit_per_round >= 0,
                  "Network: rate_limit_per_round must be >= 0");
}

void Network::advance_round(int n, Lane* lane) {
  detail::require(n >= 0, "Network::advance_round: n must be >= 0");
  if (n == 0) return;
  Lane& l = lane ? *lane : default_lane_;
  l.round_ += static_cast<std::uint64_t>(n);
  std::fill(l.probes_this_round_.begin(), l.probes_this_round_.end(), 0u);
}

bool Network::host_up(HostId id, const Lane* lane) const {
  check_host(id);
  const std::uint64_t round = (lane ? *lane : default_lane_).round_;
  const auto& [from, to] = outage_window_[id];
  if (from != to && round >= from && round < to) return false;
  const auto& h = hosts_[id];
  if (h.flap_probability <= 0.0 || h.flap_duration_rounds <= 0) return true;
  // Outage decided per block of flap_duration_rounds, deterministic in
  // (seed, host, block): the host comes back when the block elapses.
  std::uint64_t block =
      round / static_cast<std::uint64_t>(h.flap_duration_rounds);
  SplitMix64 sm(seed_ ^ (static_cast<std::uint64_t>(id) + 1) *
                            0x9e3779b97f4a7c15ULL ^
                (block + 1) * 0xbf58476d1ce4e5b9ULL);
  sm.next();  // decorrelate from the seed arithmetic
  double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return u >= h.flap_probability;
}

void Network::set_flap(HostId id, double probability, int duration_rounds) {
  check_host(id);
  // Validate on a copy so a rejected reconfiguration leaves the host's
  // previous (valid) fault model in place instead of a half-written one.
  HostProfile candidate = hosts_[id];
  candidate.flap_probability = probability;
  candidate.flap_duration_rounds = duration_rounds;
  check_fault_model(candidate);
  hosts_[id] = candidate;
}

void Network::set_outage_window(HostId id, std::uint64_t from,
                                std::uint64_t to) {
  check_host(id);
  detail::require(from <= to, "Network::set_outage_window: from > to");
  outage_window_[id] = {from, to};
}

void Network::set_rate_limit(HostId id, int per_round) {
  check_host(id);
  HostProfile candidate = hosts_[id];
  candidate.rate_limit_per_round = per_round;
  check_fault_model(candidate);
  hosts_[id] = candidate;
}

void Network::set_adversary(HostId id, const AdversaryProfile& profile) {
  check_host(id);
  check_adversary(profile);  // throws before any mutation
  if (adversaries_.size() < hosts_.size()) adversaries_.resize(hosts_.size());
  if (!adversaries_[id]) AGEO_COUNT("netsim.adversary.hosts_compromised");
  adversaries_[id] = profile;
}

void Network::clear_adversary(HostId id) {
  check_host(id);
  if (id < adversaries_.size()) adversaries_[id].reset();
}

const AdversaryProfile* Network::adversary(HostId id) const {
  check_host(id);
  if (id >= adversaries_.size() || !adversaries_[id]) return nullptr;
  return &*adversaries_[id];
}

std::size_t Network::adversary_count() const noexcept {
  std::size_t n = 0;
  for (const auto& a : adversaries_)
    if (a) ++n;
  return n;
}

std::optional<double> Network::adversarial_rtt_ms(HostId from, HostId to,
                                                  Lane& lane,
                                                  const AdversaryProfile& adv) {
  // Hash-keyed draws (never the lane's RNG): deterministic in
  // (network seed, lane seed, target host, lane round, per-lane probe
  // ordinal), so a threaded audit replays the identical schedule and
  // honest hosts' streams are untouched.
  const std::uint64_t key =
      seed_ ^ (lane.seed_ * 0x9e3779b97f4a7c15ULL) ^
      ((static_cast<std::uint64_t>(to) + 1) * 0xbf58476d1ce4e5b9ULL);
  ++lane.adversary_draws_;
  if (adv.drop_probability > 0.0) {
    SplitMix64 dm(key ^ (lane.round_ + 1) * 0x94d049bb133111ebULL ^
                  lane.adversary_draws_ * 0xd6e8feb86659fd93ULL);
    dm.next();
    double u = static_cast<double>(dm.next() >> 11) * 0x1.0p-53;
    if (u < adv.drop_probability) {
      AGEO_COUNT("netsim.adversary.probes_dropped");
      return std::nullopt;
    }
  }
  double jitter = 0.0;
  if (adv.jitter_ms > 0.0) {
    // Per-round, not per-probe: the lie is re-quantized each volley but
    // holds still within one (min-filtering across attempts would
    // otherwise strip a zero-mean per-probe jitter right back off).
    SplitMix64 jm(key ^ (lane.round_ + 1) * 0xa0761d6478bd642fULL);
    jm.next();
    double u = static_cast<double>(jm.next() >> 11) * 0x1.0p-53;
    jitter = (2.0 * u - 1.0) * adv.jitter_ms;
  }
  double rtt;
  if (adv.fake_target) {
    // Consistency-preserving collusion: reply with the RTT a probe
    // would plausibly measure if the prober sat at fake_target —
    // propagation over an inflated route plus both access legs, no
    // queueing tail. Colluders sharing a fake target thus produce
    // mutually consistent geometric constraints around it. The true
    // path is never sampled (the colluder answers from a script), which
    // is itself deterministic per lane.
    double d =
        geo::arc_distance_km(host_vec_[to], geo::to_vec3(*adv.fake_target));
    double one_way = d * adv.fake_route_inflation /
                         params_.fibre_speed_km_per_ms +
                     params_.per_hop_ms * 4.0;
    rtt = 2.0 * one_way + access_ms(from) + access_ms(to);
    AGEO_COUNT("netsim.adversary.probes_forged");
  } else {
    // Shift/scale attack: the true path is measured (consuming exactly
    // the draws an honest reply would) and the reported value is bent.
    rtt = sample_rtt_ms(from, to, &lane) * adv.delay_scale +
          adv.delay_shift_ms;
    AGEO_COUNT("netsim.adversary.probes_shifted");
  }
  return std::max(0.05, rtt + jitter);
}

bool Network::rate_limited(HostId to, Lane& lane) {
  int limit = hosts_[to].rate_limit_per_round;
  if (limit <= 0) return false;
  if (to >= lane.probes_this_round_.size())
    lane.probes_this_round_.resize(hosts_.size(), 0u);
  return ++lane.probes_this_round_[to] > static_cast<std::uint32_t>(limit);
}

const HostProfile& Network::host(HostId id) const {
  check_host(id);
  return hosts_[id];
}

void Network::check_host(HostId id) const {
  detail::require(id < hosts_.size(), "Network: unknown host id");
}

double Network::access_ms(HostId h) const {
  return params_.access_base_ms +
         params_.access_quality_ms * (1.0 - hosts_[h].net_quality);
}

double Network::pair_inflation(HostId a, HostId b) const {
  // Persistent per-pair route detour, deterministic in (seed, a, b) and
  // symmetric: routes don't change between measurements of one pair.
  HostId lo = std::min(a, b), hi = std::max(a, b);
  SplitMix64 sm(seed_ ^ (static_cast<std::uint64_t>(lo) << 32 | hi) ^
                0x9d2c5680u);
  double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return 1.0 + u * (params_.pair_inflation_max - 1.0);
}

double Network::gc_km(HostId a, HostId b) const {
  return geo::arc_distance_km(host_vec_[a], host_vec_[b]);
}

double Network::route_km(HostId a, HostId b) const {
  check_host(a);
  check_host(b);
  if (a == b) return 0.0;
  return routed_km(a, b, gc_km(a, b));
}

double Network::routed_km(HostId a, HostId b, double gc) const {
  double via_hubs = hub_leg_km_[a] * params_.local_inflation +
                    hubs_->route_km(nearest_hub_[a], nearest_hub_[b]) +
                    hub_leg_km_[b] * params_.local_inflation;

  double best = via_hubs;
  // Short-haul direct routes exist within a metro / national backbone.
  if (gc <= params_.direct_threshold_km)
    best = std::min(best, gc * params_.direct_inflation);
  return best * pair_inflation(a, b);
}

int Network::path_hops(HostId a, HostId b, double gc) const {
  if (a == b) return 0;
  if (gc <= params_.direct_threshold_km) {
    // Direct routes still traverse a handful of routers.
    return 3;
  }
  return 2 + hubs_->route_hops(nearest_hub_[a], nearest_hub_[b]);
}

double Network::path_congestion(HostId a, HostId b) const {
  if (a == b) return 0.0;
  double hub_part =
      hubs_->route_congestion_ms(nearest_hub_[a], nearest_hub_[b]);
  // Poor access networks queue at the last mile too.
  double access_part = (1.0 - hosts_[a].net_quality) * 1.5 +
                       (1.0 - hosts_[b].net_quality) * 1.5;
  return hub_part + access_part;
}

double Network::base_rtt_ms(HostId a, HostId b) const {
  check_host(a);
  check_host(b);
  if (a == b) return 0.05;  // loopback
  const double gc = gc_km(a, b);
  double one_way = routed_km(a, b, gc) / params_.fibre_speed_km_per_ms +
                   params_.per_hop_ms * path_hops(a, b, gc);
  return 2.0 * one_way + access_ms(a) + access_ms(b);
}

double Network::queued_rtt_ms(double base, double congestion_mean,
                              Rng& rng) const {
  double rtt = base;
  if (congestion_mean > 0.0) rtt += rng.exponential(congestion_mean);
  if (rng.chance(params_.spike_probability))
    rtt += rng.lognormal(params_.spike_mu, params_.spike_sigma);
  rtt += std::abs(rng.normal(0.0, params_.jitter_ms));
  return rtt;
}

double Network::sample_rtt_ms(HostId a, HostId b, Lane* lane) {
  return min_sample_rtt_ms(a, b, 1, lane);
}

double Network::min_sample_rtt_ms(HostId a, HostId b, int k, Lane* lane) {
  detail::require(k >= 1, "Network::min_sample_rtt_ms: k must be >= 1");
  const double base = base_rtt_ms(a, b);
  if (a == b) return base;
  Rng& rng = (lane ? *lane : default_lane_).rng_;
  const double congestion_mean =
      params_.congestion_scale * path_congestion(a, b);
  double best = queued_rtt_ms(base, congestion_mean, rng);
  for (int s = 1; s < k; ++s)
    best = std::min(best, queued_rtt_ms(base, congestion_mean, rng));
  return best;
}

std::optional<double> Network::icmp_ping_ms(HostId from, HostId to,
                                            Lane* lane) {
  check_host(from);
  check_host(to);
  if (!hosts_[to].icmp_responds) return std::nullopt;
  Lane& l = lane ? *lane : default_lane_;
  if (!host_up(to, &l) || rate_limited(to, l)) return std::nullopt;
  if (to < adversaries_.size() && adversaries_[to])
    return adversarial_rtt_ms(from, to, l, *adversaries_[to]);
  return sample_rtt_ms(from, to, &l);
}

ConnectResult Network::tcp_connect(HostId from, HostId to,
                                   std::uint16_t port, Lane* lane) {
  check_host(from);
  check_host(to);
  const bool common = (port == 80 || port == 443);
  if (!common && hosts_[to].filters_uncommon_ports)
    return {ConnectOutcome::kTimeout, 0.0};
  Lane& l = lane ? *lane : default_lane_;
  if (!host_up(to, &l) || rate_limited(to, l))
    return {ConnectOutcome::kTimeout, 0.0};
  double rtt;
  if (to < adversaries_.size() && adversaries_[to]) {
    auto manipulated = adversarial_rtt_ms(from, to, l, *adversaries_[to]);
    if (!manipulated) return {ConnectOutcome::kDropped, 0.0};
    rtt = *manipulated;
  } else {
    rtt = sample_rtt_ms(from, to, &l);
  }
  if (port == 80 && !hosts_[to].tcp_port80_open) {
    // RST arrives after one round trip: connect() reports "refused" but
    // the elapsed time is still one RTT (paper §4.2).
    return {ConnectOutcome::kRefused, rtt};
  }
  return {ConnectOutcome::kAccepted, rtt};
}

std::optional<int> Network::traceroute_hops(HostId from, HostId to,
                                            const Lane* lane) {
  check_host(from);
  check_host(to);
  if (!hosts_[to].sends_time_exceeded) return std::nullopt;
  if (!host_up(to, lane)) return std::nullopt;
  return path_hops(from, to, gc_km(from, to));
}

}  // namespace ageo::netsim
