// Unit tests for the network simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "geo/geodesy.hpp"
#include "geo/units.hpp"
#include "netsim/network.hpp"
#include "netsim/proxy.hpp"
#include "world/hubs.hpp"

namespace ageo::netsim {
namespace {

class NetsimTest : public ::testing::Test {
 protected:
  Network net{world::HubGraph::builtin(), 7};

  HostId host_at(double lat, double lon, double quality = 1.0) {
    HostProfile p;
    p.location = {lat, lon};
    p.net_quality = quality;
    return net.add_host(p);
  }
};

TEST_F(NetsimTest, AddHostValidates) {
  HostProfile bad;
  bad.location = {99.0, 0.0};
  EXPECT_THROW(net.add_host(bad), InvalidArgument);
  HostProfile zero_q;
  zero_q.location = {0.0, 0.0};
  zero_q.net_quality = 0.0;
  EXPECT_THROW(net.add_host(zero_q), InvalidArgument);
}

TEST_F(NetsimTest, BaseRttSymmetricAndPhysical) {
  HostId a = host_at(52.5, 13.4);   // Berlin
  HostId b = host_at(48.85, 2.35);  // Paris
  double rtt = net.base_rtt_ms(a, b);
  EXPECT_DOUBLE_EQ(rtt, net.base_rtt_ms(b, a));
  // Physical floor: 2 * distance / c_fibre.
  double gc = geo::distance_km(net.host(a).location, net.host(b).location);
  EXPECT_GE(rtt, 2.0 * gc / geo::kFibreSpeedKmPerMs);
  // And not absurdly slow for a dense region (Paris-Berlin < 60 ms).
  EXPECT_LT(rtt, 60.0);
}

TEST_F(NetsimTest, SampleAtLeastBase) {
  HostId a = host_at(40.7, -74.0), b = host_at(34.05, -118.24);
  double base = net.base_rtt_ms(a, b);
  for (int i = 0; i < 100; ++i)
    EXPECT_GE(net.sample_rtt_ms(a, b), base - 1e-9);
}

TEST_F(NetsimTest, RouteAtLeastGreatCircle) {
  HostId a = host_at(-26.2, 28.05);  // Johannesburg
  HostId b = host_at(35.68, 139.69); // Tokyo
  double gc = geo::distance_km(net.host(a).location, net.host(b).location);
  EXPECT_GE(net.route_km(a, b), gc);
  // Sparse-region pairs are strongly circuitous (via hubs).
  EXPECT_GT(net.route_km(a, b), gc * 1.2);
}

TEST_F(NetsimTest, ShortHaulDirect) {
  HostId a = host_at(52.52, 13.40), b = host_at(52.51, 13.45);
  // A metro pair must not detour through distant hubs.
  EXPECT_LT(net.route_km(a, b), 50.0);
  EXPECT_LT(net.base_rtt_ms(a, b), 5.0);
}

TEST_F(NetsimTest, LoopbackIsFast) {
  HostId a = host_at(0.0, 0.0);
  EXPECT_LT(net.base_rtt_ms(a, a), 0.2);
}

TEST_F(NetsimTest, IcmpRespectsFlag) {
  HostProfile silent;
  silent.location = {10.0, 10.0};
  silent.icmp_responds = false;
  HostId s = net.add_host(silent);
  HostId a = host_at(11.0, 11.0);
  EXPECT_FALSE(net.icmp_ping_ms(a, s).has_value());
  EXPECT_TRUE(net.icmp_ping_ms(s, a).has_value());
}

TEST_F(NetsimTest, TcpRefusedStillMeasures) {
  HostProfile closed;
  closed.location = {20.0, 20.0};
  closed.tcp_port80_open = false;
  HostId c = net.add_host(closed);
  HostId a = host_at(21.0, 21.0);
  auto r = net.tcp_connect(a, c, 80);
  EXPECT_EQ(r.outcome, ConnectOutcome::kRefused);
  EXPECT_GT(r.elapsed_ms, 0.0);  // one RTT measured anyway (paper §4.2)
}

TEST_F(NetsimTest, UncommonPortFiltered) {
  HostProfile fw;
  fw.location = {30.0, 30.0};
  fw.filters_uncommon_ports = true;
  HostId f = net.add_host(fw);
  HostId a = host_at(31.0, 31.0);
  EXPECT_EQ(net.tcp_connect(a, f, 12345).outcome, ConnectOutcome::kTimeout);
  EXPECT_EQ(net.tcp_connect(a, f, 80).outcome, ConnectOutcome::kAccepted);
  EXPECT_EQ(net.tcp_connect(a, f, 443).outcome, ConnectOutcome::kAccepted);
}

TEST_F(NetsimTest, TracerouteRespectsFlag) {
  HostProfile mute;
  mute.location = {40.0, 40.0};
  mute.sends_time_exceeded = false;
  HostId m = net.add_host(mute);
  HostId a = host_at(41.0, 41.0);
  EXPECT_FALSE(net.traceroute_hops(a, m).has_value());
  auto hops = net.traceroute_hops(m, a);
  ASSERT_TRUE(hops.has_value());
  EXPECT_GE(*hops, 1);
}

TEST_F(NetsimTest, UnknownHostThrows) {
  HostId a = host_at(0.0, 0.0);
  EXPECT_THROW(net.base_rtt_ms(a, 999), InvalidArgument);
  EXPECT_THROW(net.host(999), InvalidArgument);
}

TEST_F(NetsimTest, PairInflationDeterministic) {
  HostId a = host_at(50.0, 8.0), b = host_at(37.0, -122.0);
  double r1 = net.route_km(a, b);
  double r2 = net.route_km(a, b);
  EXPECT_DOUBLE_EQ(r1, r2);
  EXPECT_DOUBLE_EQ(net.route_km(b, a), r1);  // symmetric detours
}

TEST_F(NetsimTest, QualityAffectsAccessDelay) {
  HostId good = host_at(10.0, 50.0, 1.0);
  HostId poor = host_at(10.0, 50.3, 0.4);
  HostId peer = host_at(20.0, 60.0, 1.0);
  EXPECT_GT(net.base_rtt_ms(poor, peer), net.base_rtt_ms(good, peer));
}

// ---- bit-identity of the latency model's geometry ----

// Test-local oracle: the route, hop and RTT expressions of the latency
// model, with every km recomputed from the host profiles by
// geo::distance_km and the nearest hub found by a linear distance_km
// scan. The simulator reads cached unit vectors and access legs instead;
// the two must agree bit for bit.
class GeometryOracle {
 public:
  GeometryOracle(const world::HubGraph& hubs, const Network& net,
                 std::uint64_t seed)
      : hubs_(hubs), net_(net), seed_(seed) {}

  static std::size_t nearest_hub(const world::HubGraph& hubs,
                                 const geo::LatLon& p) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < hubs.size(); ++i) {
      double d = geo::distance_km(p, hubs.hub(i).location);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    return best;
  }

  double route_km(HostId a, HostId b) const {
    if (a == b) return 0.0;
    const auto& p = net_.params();
    const geo::LatLon la = net_.host(a).location, lb = net_.host(b).location;
    double gc = geo::distance_km(la, lb);
    std::size_t ha = nearest_hub(hubs_, la), hb = nearest_hub(hubs_, lb);
    double via_hubs =
        geo::distance_km(la, hubs_.hub(ha).location) * p.local_inflation +
        hubs_.route_km(ha, hb) +
        geo::distance_km(lb, hubs_.hub(hb).location) * p.local_inflation;
    double best = via_hubs;
    if (gc <= p.direct_threshold_km)
      best = std::min(best, gc * p.direct_inflation);
    return best * pair_inflation(a, b);
  }

  int hops(HostId a, HostId b) const {
    if (a == b) return 0;
    const geo::LatLon la = net_.host(a).location, lb = net_.host(b).location;
    if (geo::distance_km(la, lb) <= net_.params().direct_threshold_km)
      return 3;
    return 2 + hubs_.route_hops(nearest_hub(hubs_, la),
                                nearest_hub(hubs_, lb));
  }

  double base_rtt_ms(HostId a, HostId b) const {
    if (a == b) return 0.05;
    const auto& p = net_.params();
    double one_way = route_km(a, b) / p.fibre_speed_km_per_ms +
                     p.per_hop_ms * hops(a, b);
    return 2.0 * one_way + access_ms(a) + access_ms(b);
  }

 private:
  const world::HubGraph& hubs_;
  const Network& net_;
  std::uint64_t seed_;

  double access_ms(HostId h) const {
    const auto& p = net_.params();
    return p.access_base_ms +
           p.access_quality_ms * (1.0 - net_.host(h).net_quality);
  }
  double pair_inflation(HostId a, HostId b) const {
    HostId lo = std::min(a, b), hi = std::max(a, b);
    SplitMix64 sm(seed_ ^ (static_cast<std::uint64_t>(lo) << 32 | hi) ^
                  0x9d2c5680u);
    double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
    return 1.0 + u * (net_.params().pair_inflation_max - 1.0);
  }
};

TEST_F(NetsimTest, CachedGeometryMatchesDistanceKmOracleBitForBit) {
  const auto& hubs = world::HubGraph::builtin();
  std::vector<geo::LatLon> at = {
      {90.0, 0.0},    {-90.0, 0.0},   {90.0, 123.0},  {-90.0, -77.0},
      {0.0, 180.0},   {0.0, -180.0},  {45.0, 180.0},  {-30.0, -180.0},
      {48.85, 2.35},  {48.85, 2.35},  {-33.9, 151.2}, {-33.9, 151.2},
  };
  for (const auto& h : hubs.hubs()) at.push_back(h.location);
  // Pairs just under and just over the direct-route threshold.
  const double t = net.params().direct_threshold_km;
  const geo::LatLon origin{50.0, 10.0};
  const geo::LatLon under = geo::destination(origin, 90.0, t - 0.01);
  const geo::LatLon over = geo::destination(origin, 90.0, t + 0.01);
  ASSERT_LE(geo::distance_km(origin, under), t);
  ASSERT_GT(geo::distance_km(origin, over), t);
  at.insert(at.end(), {origin, under, over});
  Rng rng(2024);
  for (int i = 0; i < 40; ++i)
    at.push_back({rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)});

  std::vector<HostId> ids;
  for (std::size_t i = 0; i < at.size(); ++i) {
    HostProfile p;
    p.location = at[i];
    p.net_quality = 0.4 + 0.6 * static_cast<double>(i % 7) / 6.0;
    ids.push_back(net.add_host(p));
    EXPECT_EQ(hubs.nearest_hub(at[i]), GeometryOracle::nearest_hub(hubs, at[i]))
        << geo::to_string(at[i]);
  }
  GeometryOracle oracle(hubs, net, 7);
  for (HostId a : ids) {
    for (HostId b : ids) {
      EXPECT_EQ(net.route_km(a, b), oracle.route_km(a, b)) << a << "," << b;
      EXPECT_EQ(net.base_rtt_ms(a, b), oracle.base_rtt_ms(a, b))
          << a << "," << b;
      EXPECT_EQ(net.traceroute_hops(a, b).value_or(-1), oracle.hops(a, b))
          << a << "," << b;
    }
  }
}

TEST(HubGraphNearest, TiesGoToTheLowestIndex) {
  std::vector<world::Hub> hubs{
      {"A", {0.0, 20.0}, world::Continent::kEurope, 1.0},
      {"B", {10.0, 10.0}, world::Continent::kEurope, 1.0},
      {"C", {10.0, 10.0}, world::Continent::kEurope, 1.0},
      {"D", {-10.0, 10.0}, world::Continent::kEurope, 1.0},
  };
  world::HubGraph g(hubs, {});
  EXPECT_EQ(g.nearest_hub({10.0, 10.0}), 1u);
  EXPECT_EQ(g.nearest_hub({11.0, 9.0}), 1u);
  // These points lie about as far from several hubs; whichever distance
  // is least, nearest_hub must pick the oracle's first minimum.
  for (const geo::LatLon p : {geo::LatLon{0.0, 10.0}, geo::LatLon{0.0, 15.0},
                              geo::LatLon{5.0, 15.0}})
    EXPECT_EQ(g.nearest_hub(p), GeometryOracle::nearest_hub(g, p));
}

// ---- proxy sessions ----

class ProxyTest : public NetsimTest {
 protected:
  HostId client = host_at(50.11, 8.68);   // Frankfurt
  HostId proxy = host_at(45.76, 4.84);    // Lyon
  HostId landmark = host_at(53.48, -2.24);  // Manchester
};

TEST_F(ProxyTest, ConnectViaSumsLegs) {
  ProxySession s(net, client, proxy, {});
  double base_legs =
      net.base_rtt_ms(client, proxy) + net.base_rtt_ms(proxy, landmark);
  for (int i = 0; i < 20; ++i) {
    auto r = s.connect_via(landmark, 80);
    ASSERT_EQ(r.outcome, ConnectOutcome::kAccepted);
    EXPECT_GE(r.elapsed_ms, base_legs);  // never faster than both legs
  }
}

TEST_F(ProxyTest, SelfPingTwiceTheTunnel) {
  ProxySession s(net, client, proxy, {});
  double base = net.base_rtt_ms(client, proxy);
  for (int i = 0; i < 20; ++i) {
    double sp = s.self_ping_ms();
    EXPECT_GE(sp, 2.0 * base);
    EXPECT_LT(sp, 2.0 * base + 80.0);  // bounded queueing in this sim
  }
}

TEST_F(ProxyTest, DirectPingFiltered) {
  ProxyBehavior quiet;
  quiet.icmp_responds = false;
  ProxySession s(net, client, proxy, quiet);
  EXPECT_FALSE(s.direct_ping_ms().has_value());
  ProxyBehavior loud;
  loud.icmp_responds = true;
  ProxySession s2(net, client, proxy, loud);
  EXPECT_TRUE(s2.direct_ping_ms().has_value());
}

TEST_F(ProxyTest, TracerouteUsuallyBroken) {
  ProxySession s(net, client, proxy, {});  // drops_time_exceeded = true
  EXPECT_FALSE(s.traceroute_hops_via(landmark).has_value());
  ProxyBehavior open;
  open.drops_time_exceeded = false;
  ProxySession s2(net, client, proxy, open);
  EXPECT_TRUE(s2.traceroute_hops_via(landmark).has_value());
}

TEST_F(ProxyTest, AddedDelayShiftsMeasurements) {
  ProxyBehavior slow;
  slow.added_delay_ms = 50.0;
  ProxySession s(net, client, proxy, slow);
  ProxySession fast(net, client, proxy, {});
  double slow_min = 1e18, fast_min = 1e18;
  for (int i = 0; i < 20; ++i) {
    slow_min = std::min(slow_min, s.connect_via(landmark, 80).elapsed_ms);
    fast_min = std::min(fast_min, fast.connect_via(landmark, 80).elapsed_ms);
  }
  EXPECT_GT(slow_min, fast_min + 40.0);
}

TEST_F(ProxyTest, ForgedSynAckHidesLandmark) {
  ProxyBehavior forge;
  forge.forge_synack_after_ms = 0.1;
  ProxySession s(net, client, proxy, forge);
  // The measurement reflects only the client-proxy leg: far smaller than
  // an honest measurement of a distant landmark.
  HostId far_lm = host_at(-33.87, 151.21);  // Sydney
  double forged = s.connect_via(far_lm, 80).elapsed_ms;
  EXPECT_LT(forged, net.base_rtt_ms(proxy, far_lm));
}

TEST_F(ProxyTest, SelectiveDelayPerLandmark) {
  HostId victim = landmark;
  ProxyBehavior selective;
  selective.selective_delay = [victim](HostId lm) {
    return lm == victim ? 100.0 : 0.0;
  };
  ProxySession s(net, client, proxy, selective);
  HostId other = host_at(48.2, 16.37);  // Vienna
  double v_min = 1e18, o_min = 1e18;
  for (int i = 0; i < 10; ++i) {
    v_min = std::min(v_min, s.connect_via(victim, 80).elapsed_ms);
    o_min = std::min(o_min, s.connect_via(other, 80).elapsed_ms);
  }
  EXPECT_GT(v_min, 100.0);
  EXPECT_LT(o_min, 100.0);
}

// ---- probe rounds & transient faults ----

TEST_F(NetsimTest, FlapScheduleDeterministicPerBlock) {
  HostId h = host_at(10.0, 10.0);
  net.set_flap(h, 0.5, 4);
  // The schedule is a function of (seed, host, block): constant within
  // each 4-round block, and identical on a rebuilt network.
  Network twin(world::HubGraph::builtin(), 7);
  HostProfile p;
  p.location = {10.0, 10.0};
  HostId th = twin.add_host(p);
  twin.set_flap(th, 0.5, 4);
  bool saw_up = false, saw_down = false;
  bool block_state = net.host_up(h);
  for (int r = 0; r < 100; ++r) {
    if (r % 4 == 0) block_state = net.host_up(h);
    EXPECT_EQ(net.host_up(h), block_state) << "round " << r;
    EXPECT_EQ(twin.host_up(th), net.host_up(h)) << "round " << r;
    (net.host_up(h) ? saw_up : saw_down) = true;
    net.advance_round();
    twin.advance_round();
  }
  EXPECT_TRUE(saw_up);    // flapping, not dead:
  EXPECT_TRUE(saw_down);  // both states occur over 25 blocks
}

TEST_F(NetsimTest, FlappingHostTimesOutWhileDown) {
  HostId a = host_at(0.0, 0.0);
  HostId h = host_at(10.0, 10.0);
  net.set_flap(h, 0.5, 3);
  int answered = 0, dropped = 0;
  for (int r = 0; r < 60; ++r) {
    auto ping = net.icmp_ping_ms(a, h);
    auto conn = net.tcp_connect(a, h, 80);
    EXPECT_EQ(ping.has_value(), net.host_up(h));
    EXPECT_EQ(conn.outcome == ConnectOutcome::kAccepted, net.host_up(h));
    (ping ? answered : dropped) += 1;
    net.advance_round();
  }
  EXPECT_GT(answered, 0);
  EXPECT_GT(dropped, 0);
}

TEST_F(NetsimTest, OutageWindowDownThenRecovers) {
  HostId a = host_at(0.0, 0.0);
  HostId h = host_at(10.0, 10.0);
  net.set_outage_window(h, 2, 5);
  for (int r = 0; r < 8; ++r) {
    bool expect_up = r < 2 || r >= 5;
    EXPECT_EQ(net.host_up(h), expect_up) << "round " << r;
    EXPECT_EQ(net.icmp_ping_ms(a, h).has_value(), expect_up);
    net.advance_round();
  }
}

TEST_F(NetsimTest, RateLimiterCapsPerRoundAndResets) {
  HostId a = host_at(0.0, 0.0);
  HostId h = host_at(10.0, 10.0);
  net.set_rate_limit(h, 3);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(net.icmp_ping_ms(a, h).has_value());
  // The 4th probe of the round is a storm: timed out.
  EXPECT_FALSE(net.icmp_ping_ms(a, h).has_value());
  EXPECT_EQ(net.tcp_connect(a, h, 80).outcome, ConnectOutcome::kTimeout);
  net.advance_round();
  EXPECT_TRUE(net.icmp_ping_ms(a, h).has_value());  // budget reset
}

TEST_F(NetsimTest, FaultModelValidates) {
  HostProfile bad;
  bad.location = {0.0, 0.0};
  bad.flap_probability = 1.0;  // certain outage = dead host, rejected
  EXPECT_THROW(net.add_host(bad), InvalidArgument);
  bad.flap_probability = 0.0;
  bad.flap_duration_rounds = -1;
  EXPECT_THROW(net.add_host(bad), InvalidArgument);
  HostId h = host_at(10.0, 10.0);
  EXPECT_THROW(net.set_flap(h, -0.1, 4), InvalidArgument);
  EXPECT_THROW(net.set_outage_window(h, 5, 2), InvalidArgument);
  EXPECT_THROW(net.set_rate_limit(h, -1), InvalidArgument);
  EXPECT_THROW(net.advance_round(-1), InvalidArgument);
  EXPECT_THROW(net.host_up(999), InvalidArgument);
}

// ---- lanes: independent measurement timelines ----

TEST_F(NetsimTest, LanesWithSameSeedDrawIdenticalSamples) {
  HostId a = host_at(40.7, -74.0), b = host_at(34.05, -118.24);
  Lane l1 = net.make_lane(123), l2 = net.make_lane(123);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(net.sample_rtt_ms(a, b, &l1), net.sample_rtt_ms(a, b, &l2));
}

TEST_F(NetsimTest, LaneDrawsDoNotPerturbOtherLanes) {
  HostId a = host_at(40.7, -74.0), b = host_at(34.05, -118.24);
  // Reference sequence from a fresh lane, uninterrupted.
  Lane ref = net.make_lane(5);
  std::vector<double> expect;
  for (int i = 0; i < 10; ++i) expect.push_back(net.sample_rtt_ms(a, b, &ref));
  // Same sequence while another lane (and the default lane) draw
  // interleaved: the streams must not cross.
  Lane mine = net.make_lane(5), other = net.make_lane(6);
  for (int i = 0; i < 10; ++i) {
    net.sample_rtt_ms(a, b, &other);
    net.sample_rtt_ms(a, b);  // default lane
    EXPECT_EQ(net.sample_rtt_ms(a, b, &mine), expect[static_cast<std::size_t>(i)]);
  }
}

TEST_F(NetsimTest, LaneRoundClockAndRateLimitAreIndependent) {
  HostId a = host_at(0.0, 0.0);
  HostId h = host_at(10.0, 10.0);
  net.set_rate_limit(h, 2);
  Lane lane = net.make_lane(9);
  // Exhaust the lane's budget; the default lane's budget is untouched.
  EXPECT_TRUE(net.icmp_ping_ms(a, h, &lane).has_value());
  EXPECT_TRUE(net.icmp_ping_ms(a, h, &lane).has_value());
  EXPECT_FALSE(net.icmp_ping_ms(a, h, &lane).has_value());
  EXPECT_TRUE(net.icmp_ping_ms(a, h).has_value());
  // Advancing the lane resets its budget and moves only its clock.
  net.advance_round(3, &lane);
  EXPECT_EQ(lane.round(), 3u);
  EXPECT_EQ(net.round(), 0u);
  EXPECT_TRUE(net.icmp_ping_ms(a, h, &lane).has_value());
  // An outage window is judged against the lane's clock.
  net.set_outage_window(h, 2, 4);
  EXPECT_FALSE(net.host_up(h, &lane));  // lane round 3: inside [2, 4)
  EXPECT_TRUE(net.host_up(h));          // default round 0: before it
}

// Twin-network oracle for the calibration sampler: two networks built
// identically, one drawing min_sample_rtt_ms(k), the other k separate
// sample_rtt_ms calls folded with std::min. The minimum and the draw
// after it must match bit for bit on the default lane and on a lane, so
// the sampler consumes exactly the k samples' draws in the same order.
TEST(NetsimMinSample, MatchesTheMinimumOfKSamplesAndTheNextDraw) {
  Network fast(world::HubGraph::builtin(), 31);
  Network slow(world::HubGraph::builtin(), 31);
  std::vector<HostId> hosts;
  for (const geo::LatLon at : {geo::LatLon{40.7, -74.0},
                               geo::LatLon{34.05, -118.24},
                               geo::LatLon{51.5, -0.1}}) {
    HostProfile p;
    p.location = at;
    p.net_quality = 0.6;
    hosts.push_back(fast.add_host(p));
    ASSERT_EQ(slow.add_host(p), hosts.back());
  }
  Lane fast_lane = fast.make_lane(77), slow_lane = slow.make_lane(77);
  for (Lane* lane : {static_cast<Lane*>(nullptr), &fast_lane}) {
    Lane* twin = lane ? &slow_lane : nullptr;
    for (int k : {1, 3, 5}) {
      // Pairs (0,1), (1,2) and (2,2): the last is a == b.
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        const HostId a = hosts[i];
        const HostId b = hosts[std::min(i + 1, hosts.size() - 1)];
        const double got = fast.min_sample_rtt_ms(a, b, k, lane);
        double want = slow.sample_rtt_ms(a, b, twin);
        for (int s = 1; s < k; ++s)
          want = std::min(want, slow.sample_rtt_ms(a, b, twin));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "k=" << k << " pair " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      fast.sample_rtt_ms(hosts[0], hosts[1], lane)),
                  std::bit_cast<std::uint64_t>(
                      slow.sample_rtt_ms(hosts[0], hosts[1], twin)))
            << "next draw after k=" << k << " pair " << i;
      }
    }
  }
  EXPECT_THROW(fast.min_sample_rtt_ms(hosts[0], hosts[1], 0), InvalidArgument);
}

TEST_F(ProxyTest, SessionLaneRoutesMeasurements) {
  ProxySession s(net, client, proxy, {});
  Lane lane = net.make_lane(31);
  s.set_lane(&lane);
  EXPECT_EQ(s.lane(), &lane);
  EXPECT_TRUE(s.alive());
  EXPECT_GT(s.self_ping_ms(), 0.0);
  // Outage windows act on the session's lane clock.
  net.set_outage_window(proxy, 1, 2);
  net.advance_round(1, &lane);
  EXPECT_FALSE(s.alive());
  s.set_lane(nullptr);  // default lane is still at round 0
  EXPECT_TRUE(s.alive());
}

TEST_F(ProxyTest, TunnelAliveReconnectAndSelfPing) {
  ProxySession s(net, client, proxy, {});
  EXPECT_TRUE(s.alive());
  ASSERT_TRUE(s.try_self_ping_ms().has_value());
  net.set_outage_window(proxy, 1, 3);
  net.advance_round();
  EXPECT_FALSE(s.alive());
  EXPECT_FALSE(s.try_self_ping_ms().has_value());
  EXPECT_EQ(s.connect_via(landmark, 80).outcome, ConnectOutcome::kTimeout);
  EXPECT_FALSE(s.reconnect());  // still inside the outage
  net.advance_round(2);
  EXPECT_TRUE(s.reconnect());
  EXPECT_TRUE(s.alive());
  EXPECT_EQ(s.reconnect_attempts(), 2);
  EXPECT_TRUE(s.try_self_ping_ms().has_value());
}

// Distance-delay correlation: the core property geolocation depends on.
TEST(NetsimStat, DelayGrowsWithDistance) {
  Network net(world::HubGraph::builtin(), 11);
  HostProfile p;
  p.location = {50.11, 8.68};
  HostId frankfurt = net.add_host(p);
  struct Probe {
    double lat, lon;
  };
  // Increasing distance from Frankfurt.
  Probe probes[] = {{50.0, 9.0},   {48.85, 2.35}, {40.42, -3.7},
                    {40.7, -74.0}, {35.68, 139.69}};
  double prev = 0.0;
  for (const auto& pr : probes) {
    HostProfile q;
    q.location = {pr.lat, pr.lon};
    HostId h = net.add_host(q);
    double rtt = net.base_rtt_ms(frankfurt, h);
    EXPECT_GT(rtt, prev);
    prev = rtt;
  }
}

// Effective speeds land in the empirically observed band: below the
// physical limit, above the slowline, for well-connected pairs.
TEST(NetsimStat, EffectiveSpeedBand) {
  Network net(world::HubGraph::builtin(), 13);
  Rng rng(17);
  HostProfile c;
  c.location = {50.11, 8.68};
  HostId frankfurt = net.add_host(c);
  int in_band = 0, total = 0;
  for (int i = 0; i < 60; ++i) {
    HostProfile p;
    p.location = {rng.uniform(35.0, 60.0), rng.uniform(-10.0, 30.0)};
    HostId h = net.add_host(p);
    double gc = geo::distance_km(c.location, p.location);
    if (gc < 500.0) continue;
    double one_way = net.base_rtt_ms(frankfurt, h) / 2.0;
    double speed = gc / one_way;
    ++total;
    EXPECT_LT(speed, geo::kFibreSpeedKmPerMs);
    if (speed > 60.0) ++in_band;
  }
  // Most intra-Europe pairs travel at a respectable effective speed.
  EXPECT_GT(in_band, total * 2 / 3);
}

// ---- Byzantine landmark adversaries (DESIGN.md §11) ----

TEST_F(NetsimTest, AdversaryValidatesBeforeMutation) {
  HostId h = host_at(10.0, 10.0);
  AdversaryProfile bad;
  bad.delay_scale = 0.0;
  EXPECT_THROW(net.set_adversary(h, bad), InvalidArgument);
  bad = {};
  bad.drop_probability = 1.5;
  EXPECT_THROW(net.set_adversary(h, bad), InvalidArgument);
  bad = {};
  bad.jitter_ms = -1.0;
  EXPECT_THROW(net.set_adversary(h, bad), InvalidArgument);
  bad = {};
  bad.fake_route_inflation = 0.5;
  EXPECT_THROW(net.set_adversary(h, bad), InvalidArgument);
  // Every rejection left the host honest.
  EXPECT_EQ(net.adversary(h), nullptr);
  EXPECT_EQ(net.adversary_count(), 0u);

  net.set_adversary(h, inflate_attack());
  EXPECT_NE(net.adversary(h), nullptr);
  EXPECT_EQ(net.adversary_count(), 1u);
  net.clear_adversary(h);
  EXPECT_EQ(net.adversary(h), nullptr);
}

TEST_F(NetsimTest, ShiftAttackBendsTheHonestSample) {
  // A pure additive shift with no jitter reports exactly the honest
  // sample plus the shift: the adversarial path consumes the same lane
  // draws, then lies about the result.
  HostId a = host_at(52.5, 13.4);
  HostId h = host_at(48.85, 2.35);
  Network twin{world::HubGraph::builtin(), 7};
  HostProfile pa, ph;
  pa.location = {52.5, 13.4};
  ph.location = {48.85, 2.35};
  HostId ta = twin.add_host(pa);
  HostId th = twin.add_host(ph);

  AdversaryProfile shift;
  shift.delay_shift_ms = 30.0;
  net.set_adversary(h, shift);
  Lane mine = net.make_lane(99), ref = twin.make_lane(99);
  for (int i = 0; i < 20; ++i) {
    auto lied = net.icmp_ping_ms(a, h, &mine);
    auto honest = twin.icmp_ping_ms(ta, th, &ref);
    ASSERT_TRUE(lied && honest);
    EXPECT_NEAR(*lied, *honest + 30.0, 1e-9);
  }
}

TEST_F(NetsimTest, DeflateAttackScalesDown) {
  HostId a = host_at(40.7, -74.0);
  HostId h = host_at(34.05, -118.24);
  Network twin{world::HubGraph::builtin(), 7};
  HostProfile pa, ph;
  pa.location = {40.7, -74.0};
  ph.location = {34.05, -118.24};
  HostId ta = twin.add_host(pa);
  HostId th = twin.add_host(ph);

  net.set_adversary(h, deflate_attack(0.5, /*jitter_ms=*/0.0));
  Lane mine = net.make_lane(4), ref = twin.make_lane(4);
  for (int i = 0; i < 20; ++i) {
    auto lied = net.icmp_ping_ms(a, h, &mine);
    auto honest = twin.icmp_ping_ms(ta, th, &ref);
    ASSERT_TRUE(lied && honest);
    // Exactly half the honest sample (clamped): the deflater measures
    // the true path, then under-reports it — undercutting the physical
    // floor is the whole point, and what the subset engine catches.
    EXPECT_NEAR(*lied, std::max(0.05, *honest * 0.5), 1e-9);
    EXPECT_LT(*lied, *honest);
  }
}

TEST_F(NetsimTest, HonestStreamsUnchangedByAdversaryElsewhere) {
  // Attaching an adversary to one host must not perturb any other
  // host's samples: adversarial draws are hash-derived, never taken
  // from the lane RNG stream.
  HostId a = host_at(52.5, 13.4);
  HostId h = host_at(48.85, 2.35);
  HostId honest = host_at(41.9, 12.5);
  Network twin{world::HubGraph::builtin(), 7};
  HostProfile pa, ph, po;
  pa.location = {52.5, 13.4};
  ph.location = {48.85, 2.35};
  po.location = {41.9, 12.5};
  HostId ta = twin.add_host(pa);
  (void)twin.add_host(ph);
  HostId to = twin.add_host(po);

  net.set_adversary(h, drop_attack(0.9));
  Lane mine = net.make_lane(7), ref = twin.make_lane(7);
  for (int i = 0; i < 25; ++i) {
    auto x = net.icmp_ping_ms(a, honest, &mine);
    auto y = twin.icmp_ping_ms(ta, to, &ref);
    ASSERT_TRUE(x && y);
    EXPECT_EQ(*x, *y);
  }
}

TEST_F(NetsimTest, DropAttackDropsDeterministically) {
  HostId a = host_at(52.5, 13.4);
  HostId h = host_at(48.85, 2.35);
  net.set_adversary(h, drop_attack(1.0));
  EXPECT_FALSE(net.icmp_ping_ms(a, h).has_value());
  auto r = net.tcp_connect(a, h, 80);
  EXPECT_EQ(r.outcome, ConnectOutcome::kDropped);

  // p = 0.5 drops the same probes on identically-seeded lanes.
  net.set_adversary(h, drop_attack(0.5));
  Lane l1 = net.make_lane(21), l2 = net.make_lane(21);
  int dropped = 0;
  for (int i = 0; i < 40; ++i) {
    auto x = net.icmp_ping_ms(a, h, &l1);
    auto y = net.icmp_ping_ms(a, h, &l2);
    EXPECT_EQ(x.has_value(), y.has_value());
    if (!x) ++dropped;
  }
  EXPECT_GT(dropped, 5);
  EXPECT_LT(dropped, 35);
}

TEST_F(NetsimTest, CollusionRepliesAreConsistentWithTheFakeTarget) {
  // Two colluders at different distances from the rendezvous: the
  // farther one must fabricate the larger delay, regardless of where
  // the probing host actually is.
  geo::LatLon fake{40.0, -100.0};
  HostId probe = host_at(52.5, 13.4);
  HostId near_fake = host_at(41.0, -95.0);
  HostId far_fake = host_at(35.68, 139.69);
  net.set_adversary(near_fake, collusion_attack(fake, 0, 0.0));
  net.set_adversary(far_fake, collusion_attack(fake, 0, 0.0));
  Lane lane = net.make_lane(3);
  auto rn = net.icmp_ping_ms(probe, near_fake, &lane);
  auto rf = net.icmp_ping_ms(probe, far_fake, &lane);
  ASSERT_TRUE(rn && rf);
  EXPECT_LT(*rn, *rf);
  // And the forged reply is deterministic per lane.
  Lane replay = net.make_lane(3);
  auto rn2 = net.icmp_ping_ms(probe, near_fake, &replay);
  ASSERT_TRUE(rn2);
  EXPECT_EQ(*rn, *rn2);
}

TEST_F(NetsimTest, AttachAdversariesPicksDeterministically) {
  std::vector<HostId> hosts;
  for (int i = 0; i < 20; ++i) hosts.push_back(host_at(10.0 + i, 5.0));
  auto picked = pick_colluders(hosts, 0.25, 77);
  EXPECT_EQ(picked.size(), 5u);
  EXPECT_EQ(picked, pick_colluders(hosts, 0.25, 77));
  EXPECT_NE(picked, pick_colluders(hosts, 0.25, 78));

  auto attached =
      attach_adversaries(net, hosts, 0.25, "collude", 77, {40.0, -100.0});
  EXPECT_EQ(attached, picked);
  for (HostId h : attached) {
    ASSERT_NE(net.adversary(h), nullptr);
    EXPECT_TRUE(net.adversary(h)->fake_target.has_value());
    EXPECT_EQ(net.adversary(h)->collusion_group, 0);
  }
  EXPECT_THROW(
      attach_adversaries(net, hosts, 0.25, "nonsense", 77, {0.0, 0.0}),
      InvalidArgument);
}

TEST_F(NetsimTest, FaultSetterRejectionPreservesOldState) {
  // Regression: set_flap/set_rate_limit used to mutate the profile
  // before validating, so a rejected reconfiguration left the host in a
  // half-written state.
  HostId h = host_at(10.0, 10.0);
  net.set_flap(h, 0.25, 3);
  EXPECT_THROW(net.set_flap(h, 1.5, 2), InvalidArgument);
  EXPECT_EQ(net.host(h).flap_probability, 0.25);
  EXPECT_EQ(net.host(h).flap_duration_rounds, 3);
  net.set_rate_limit(h, 5);
  EXPECT_THROW(net.set_rate_limit(h, -2), InvalidArgument);
  EXPECT_EQ(net.host(h).rate_limit_per_round, 5);
}

}  // namespace
}  // namespace ageo::netsim
