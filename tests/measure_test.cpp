// Unit tests for the measurement module.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "algos/cbg_pp.hpp"
#include "common/error.hpp"
#include "geo/geodesy.hpp"
#include "measure/proxy_measure.hpp"
#include "measure/refine.hpp"
#include "measure/testbed.hpp"
#include "measure/tools.hpp"
#include "measure/two_phase.hpp"
#include "obs/obs.hpp"
#include "world/placement.hpp"

namespace ageo::measure {
namespace {

/// A small shared testbed so the suite stays fast; SetUpTestSuite builds
/// it once.
class MeasureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedConfig cfg;
    cfg.seed = 404;
    cfg.constellation.n_anchors = 120;
    cfg.constellation.n_probes = 200;
    bed_ = new Testbed(cfg);
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }
  static Testbed* bed_;
};

Testbed* MeasureTest::bed_ = nullptr;

TEST_F(MeasureTest, TestbedWiring) {
  EXPECT_EQ(bed_->landmarks().size(), 320u);
  EXPECT_EQ(bed_->anchor_ids().size(), 120u);
  EXPECT_EQ(bed_->store().size(), bed_->landmarks().size());
  EXPECT_TRUE(bed_->store().fitted());
  EXPECT_EQ(bed_->net().host_count(), 320u);
}

TEST_F(MeasureTest, CalibrationIsPlausible) {
  // Every anchor's bestline speed sits between the slowline and the
  // physical limit (paper Fig. 2: e.g. 93.5 km/ms).
  int calibrated = 0;
  for (std::size_t a : bed_->anchor_ids()) {
    const auto& m = bed_->store().cbg_slowline(a);
    if (!m.calibrated()) continue;
    ++calibrated;
    EXPECT_GE(m.speed_km_per_ms(), 84.5 - 1e-9);
    EXPECT_LE(m.speed_km_per_ms(), 200.0 + 1e-9);
  }
  EXPECT_GT(calibrated, 100);
}

TEST_F(MeasureTest, CliToolMeasuresOneRtt) {
  netsim::HostProfile p;
  p.location = {50.0, 9.0};
  netsim::HostId me = bed_->add_host(p);
  auto lm = bed_->landmark_host(0);
  auto m = CliTool::measure_ms(bed_->net(), me, lm);
  ASSERT_TRUE(m.has_value());
  EXPECT_GE(*m, bed_->net().base_rtt_ms(me, lm) - 1e-9);
}

TEST_F(MeasureTest, WebToolRoundTrips) {
  WebTool web;
  Rng rng(5);
  netsim::HostProfile p;
  p.location = {48.0, 11.0};
  netsim::HostId me = bed_->add_host(p);
  auto lm = bed_->landmark_host(3);
  auto open = web.measure(bed_->net(), me, lm, true, world::ClientOs::kLinux,
                          world::Browser::kFirefox, rng);
  auto closed = web.measure(bed_->net(), me, lm, false,
                            world::ClientOs::kLinux,
                            world::Browser::kFirefox, rng);
  EXPECT_EQ(open.round_trips, 2);
  EXPECT_EQ(closed.round_trips, 1);
  // Two round trips take roughly twice as long.
  EXPECT_GT(open.elapsed_ms, closed.elapsed_ms * 1.2);
}

TEST_F(MeasureTest, WebToolWindowsNoisier) {
  WebTool web;
  Rng rng(6);
  netsim::HostProfile p;
  p.location = {48.0, 11.0};
  netsim::HostId me = bed_->add_host(p);
  auto lm = bed_->landmark_host(7);
  double linux_sum = 0, win_sum = 0;
  int outliers = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    linux_sum += web.measure(bed_->net(), me, lm, false,
                             world::ClientOs::kLinux,
                             world::Browser::kChrome, rng)
                     .elapsed_ms;
    auto w = web.measure(bed_->net(), me, lm, false,
                         world::ClientOs::kWindows, world::Browser::kChrome,
                         rng);
    win_sum += w.elapsed_ms;
    if (w.is_outlier) ++outliers;
  }
  EXPECT_GT(win_sum, linux_sum * 1.5);
  EXPECT_GT(outliers, 2);
  EXPECT_LT(outliers, n / 3);
}

TEST_F(MeasureTest, TwoPhaseFindsContinent) {
  Rng rng(7);
  // A target squarely in Europe.
  netsim::HostProfile p;
  p.location = {50.1, 14.4};  // Prague
  netsim::HostId target = bed_->add_host(p);
  ProbeFn probe = [&](std::size_t lm) {
    return CliTool::measure_ms(bed_->net(), target, bed_->landmark_host(lm));
  };
  auto r = two_phase_measure(*bed_, probe, rng);
  EXPECT_EQ(r.continent, world::Continent::kEurope);
  EXPECT_LE(r.observations.size(), 25u);
  EXPECT_GE(r.observations.size(), 15u);
  // All phase-2 landmarks are on the chosen continent.
  for (std::size_t id : r.landmark_ids)
    EXPECT_EQ(bed_->landmarks()[id].continent, r.continent);
  // Observations are one-way delays: positive, finite.
  for (const auto& ob : r.observations) {
    EXPECT_GT(ob.one_way_delay_ms, 0.0);
    EXPECT_TRUE(std::isfinite(ob.one_way_delay_ms));
  }
}

TEST_F(MeasureTest, TwoPhaseOtherContinents) {
  Rng rng(8);
  struct Case {
    double lat, lon;
    world::Continent want;
  };
  Case cases[] = {
      {40.7, -74.0, world::Continent::kNorthAmerica},
      {35.68, 139.69, world::Continent::kAsia},
      {-33.87, 151.21, world::Continent::kAustralia},
  };
  for (const auto& c : cases) {
    netsim::HostProfile p;
    p.location = {c.lat, c.lon};
    netsim::HostId target = bed_->add_host(p);
    ProbeFn probe = [&](std::size_t lm) {
      return CliTool::measure_ms(bed_->net(), target,
                                 bed_->landmark_host(lm));
    };
    auto r = two_phase_measure(*bed_, probe, rng);
    EXPECT_EQ(r.continent, c.want) << c.lat << "," << c.lon;
  }
}

TEST_F(MeasureTest, FullScanUsesAllAnchors) {
  netsim::HostProfile p;
  p.location = {52.0, 5.0};
  netsim::HostId target = bed_->add_host(p);
  ProbeFn probe = [&](std::size_t lm) {
    return CliTool::measure_ms(bed_->net(), target, bed_->landmark_host(lm));
  };
  auto obs = full_scan_measure(*bed_, probe);
  EXPECT_EQ(obs.size(), bed_->anchor_ids().size());
}

TEST_F(MeasureTest, EtaRecovery) {
  // Pingable proxies at various distances: the regression slope of
  // direct on indirect must come out ~0.5 (paper Fig. 13: 0.49).
  netsim::HostProfile cp;
  cp.location = {50.11, 8.68};
  netsim::HostId client = bed_->add_host(cp);
  std::vector<netsim::ProxySession> sessions;
  Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    netsim::HostProfile pp;
    pp.location = {rng.uniform(35.0, 60.0), rng.uniform(-100.0, 120.0)};
    netsim::HostId proxy = bed_->add_host(pp);
    netsim::ProxyBehavior b;
    b.icmp_responds = true;
    sessions.emplace_back(bed_->net(), client, proxy, b);
  }
  auto eta = estimate_eta(sessions);
  EXPECT_EQ(eta.n_proxies, 12u);
  EXPECT_NEAR(eta.eta, 0.5, 0.05);
  EXPECT_GT(eta.r_squared, 0.98);
}

TEST_F(MeasureTest, EtaDefaultsWithFewPingable) {
  netsim::HostProfile cp;
  cp.location = {50.11, 8.68};
  netsim::HostId client = bed_->add_host(cp);
  netsim::HostProfile pp;
  pp.location = {45.0, 5.0};
  netsim::HostId proxy = bed_->add_host(pp);
  std::vector<netsim::ProxySession> sessions;
  sessions.emplace_back(bed_->net(), client, proxy,
                        netsim::ProxyBehavior{});  // not pingable
  auto eta = estimate_eta(sessions);
  EXPECT_EQ(eta.n_proxies, 0u);
  EXPECT_DOUBLE_EQ(eta.eta, 0.5);
}

TEST_F(MeasureTest, EtaDefaultPathPinnedBelowThree) {
  // Exactly two pingable proxies: below the n >= 3 regression floor, the
  // estimate must be the documented default in every field.
  netsim::HostProfile cp;
  cp.location = {50.11, 8.68};
  netsim::HostId client = bed_->add_host(cp);
  std::vector<netsim::ProxySession> sessions;
  netsim::ProxyBehavior pingable;
  pingable.icmp_responds = true;
  for (int i = 0; i < 2; ++i) {
    netsim::HostProfile pp;
    pp.location = {45.0 + i, 5.0 + i};
    sessions.emplace_back(bed_->net(), client, bed_->add_host(pp), pingable);
  }
  auto eta = estimate_eta(sessions);
  EXPECT_EQ(eta.n_proxies, 2u);
  EXPECT_DOUBLE_EQ(eta.eta, 0.5);
  EXPECT_DOUBLE_EQ(eta.eta_ci_low, 0.5);
  EXPECT_DOUBLE_EQ(eta.eta_ci_high, 0.5);
  EXPECT_DOUBLE_EQ(eta.r_squared, 0.0);
}

TEST_F(MeasureTest, EtaCiBracketsPointEstimate) {
  // Between 3 and 4 proxies the bootstrap is skipped; at 5+ it can
  // degenerate. In every regime the CI must bracket the point estimate.
  netsim::HostProfile cp;
  cp.location = {50.11, 8.68};
  netsim::HostId client = bed_->add_host(cp);
  netsim::ProxyBehavior pingable;
  pingable.icmp_responds = true;
  Rng rng(14);
  for (std::size_t n : {3u, 5u, 8u}) {
    std::vector<netsim::ProxySession> sessions;
    for (std::size_t i = 0; i < n; ++i) {
      netsim::HostProfile pp;
      pp.location = {rng.uniform(36.0, 58.0), rng.uniform(-90.0, 110.0)};
      sessions.emplace_back(bed_->net(), client, bed_->add_host(pp),
                            pingable);
    }
    auto eta = estimate_eta(sessions);
    EXPECT_EQ(eta.n_proxies, n);
    EXPECT_LE(eta.eta_ci_low, eta.eta) << n << " proxies";
    EXPECT_GE(eta.eta_ci_high, eta.eta) << n << " proxies";
    if (n < 5) {
      // Bootstrap skipped: the interval collapses onto the estimate.
      EXPECT_DOUBLE_EQ(eta.eta_ci_low, eta.eta);
      EXPECT_DOUBLE_EQ(eta.eta_ci_high, eta.eta);
    }
  }
}

TEST_F(MeasureTest, ProxyProberClampsNegativeCorrection) {
  // An adversarial proxy adding huge uniform delay inflates the tunnel
  // estimate past the whole measurement; the correction must clamp to
  // the positive floor, never go negative.
  netsim::HostProfile cp;
  cp.location = {50.11, 8.68};
  netsim::HostId client = bed_->add_host(cp);
  netsim::HostProfile pp;
  pp.location = {45.76, 4.84};
  netsim::HostId proxy = bed_->add_host(pp);
  netsim::ProxyBehavior slow;
  slow.added_delay_ms = 1000.0;  // self-ping counts it twice
  netsim::ProxySession session(bed_->net(), client, proxy, slow);
  ProxyProber prober(*bed_, session, 0.9);
  std::size_t lm_id = bed_->anchor_ids()[0];
  for (int i = 0; i < 5; ++i) {
    auto r = prober.rich_probe(lm_id);
    ASSERT_TRUE(r.measured());
    EXPECT_DOUBLE_EQ(r.rtt_ms, ProxyProber::kCorrectionFloorMs);
    auto plain = prober(lm_id);
    ASSERT_TRUE(plain.has_value());
    EXPECT_GT(*plain, 0.0);
  }
}

TEST_F(MeasureTest, ProxyProberCorrection) {
  netsim::HostProfile cp;
  cp.location = {50.11, 8.68};
  netsim::HostId client = bed_->add_host(cp);
  netsim::HostProfile pp;
  pp.location = {45.76, 4.84};  // Lyon
  netsim::HostId proxy = bed_->add_host(pp);
  netsim::ProxySession session(bed_->net(), client, proxy, {});
  ProxyProber prober(*bed_, session, 0.5);
  EXPECT_GT(prober.tunnel_rtt_ms(), 0.0);
  // Corrected values approximate the proxy-landmark RTT, not the full
  // tunnel path.
  std::size_t lm_id = bed_->anchor_ids()[0];
  // Minimum of several probes, as the two-phase procedure does —
  // individual samples carry queueing noise.
  double best = 1e18;
  for (int i = 0; i < 10; ++i) {
    auto corrected = prober(lm_id);
    ASSERT_TRUE(corrected.has_value());
    best = std::min(best, *corrected);
  }
  double true_leg =
      bed_->net().base_rtt_ms(proxy, bed_->landmark_host(lm_id));
  double full_path =
      true_leg + bed_->net().base_rtt_ms(client, proxy);
  EXPECT_LT(std::abs(best - true_leg), std::abs(best - full_path));
  EXPECT_THROW(ProxyProber(*bed_, session, 0.0), InvalidArgument);
  EXPECT_THROW(ProxyProber(*bed_, session, 1.5), InvalidArgument);
}

TEST_F(MeasureTest, RefineDoesNotGrowRegion) {
  Rng rng(11);
  auto cz = bed_->world().find_country("cz").value();
  geo::LatLon truth =
      world::random_point_in_country(bed_->world(), cz, rng);
  netsim::HostProfile p;
  p.location = truth;
  netsim::HostId target = bed_->add_host(p);
  ProbeFn probe = [&](std::size_t lm) {
    return CliTool::measure_ms(bed_->net(), target, bed_->landmark_host(lm));
  };
  auto tp = two_phase_measure(*bed_, probe, rng);
  grid::Grid g(1.0);
  algos::CbgPlusPlusGeolocator locator;
  auto base = locator.locate(g, bed_->store(), tp.observations);
  auto refined = refine_region(*bed_, g, locator, probe, tp);
  EXPECT_LE(refined.estimate.area_km2(), base.area_km2() + 1e-6);
  EXPECT_GE(refined.observations.size(), tp.observations.size());
  // Refinement must not lose the target.
  EXPECT_TRUE(refined.estimate.region.contains(truth));
}

// Pins every bit of a small testbed's calibration scatter: the simulated
// RTTs behind it, the great-circle km beside them and the nearest-probe
// peer order. A change to the latency model's arithmetic or to the order
// of RNG draws moves the digest.
TEST(TestbedCalibration, CalibPointDigestPinned) {
  TestbedConfig cfg;
  cfg.seed = 60;
  cfg.constellation.n_anchors = 60;
  cfg.constellation.n_probes = 60;
  Testbed bed(cfg);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  std::size_t points = 0;
  for (std::size_t id = 0; id < bed.store().size(); ++id) {
    const auto data = bed.store().data(id);
    mix(data.size());
    for (const auto& pt : data) {
      mix(std::bit_cast<std::uint64_t>(pt.distance_km));
      mix(std::bit_cast<std::uint64_t>(pt.delay_ms));
    }
    points += data.size();
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  EXPECT_EQ(points, 10740u);
  EXPECT_STREQ(hex, "4475cb86a679c51f");
}

TEST(TestbedCalibration, RecalibrateRefitsFromTheNewData) {
  TestbedConfig cfg;
  cfg.seed = 61;
  cfg.constellation.n_anchors = 40;
  cfg.constellation.n_probes = 40;
  Testbed bed(cfg);
  std::vector<double> old_delays;
  for (const auto& pt : bed.store().data(0)) old_delays.push_back(pt.delay_ms);
  (void)bed.store().cbg_slowline(0);  // fit the old data's family
  bed.recalibrate();
  ASSERT_TRUE(bed.store().fitted());
  std::vector<double> new_delays;
  for (const auto& pt : bed.store().data(0)) new_delays.push_back(pt.delay_ms);
  EXPECT_NE(new_delays, old_delays);  // fresh samples
  calib::CbgOptions slow;
  slow.enforce_slowline = true;
  for (std::size_t id = 0; id < bed.store().size(); ++id) {
    const auto data = bed.store().data(id);
    if (data.empty()) continue;
    const calib::CbgModel want = calib::fit_cbg_bestline(data, slow);
    const calib::CbgModel& got = bed.store().cbg_slowline(id);
    EXPECT_EQ(got.slope_ms_per_km(), want.slope_ms_per_km()) << id;
    EXPECT_EQ(got.intercept_ms(), want.intercept_ms()) << id;
  }
}

TEST_F(MeasureTest, ConfigValidation) {
  Rng rng(12);
  ProbeFn probe = [](std::size_t) { return std::nullopt; };
  TwoPhaseConfig bad;
  bad.attempts = 0;
  EXPECT_THROW(two_phase_measure(*bed_, probe, rng, bad), InvalidArgument);
  EXPECT_THROW(full_scan_measure(*bed_, probe, 0), InvalidArgument);
}

TEST_F(MeasureTest, UnreachableLandmarksSkipped) {
  Rng rng(13);
  // A probe that always fails: no observations, but no crash.
  ProbeFn dead = [](std::size_t) { return std::nullopt; };
  auto r = two_phase_measure(*bed_, dead, rng);
  EXPECT_TRUE(r.observations.empty());
  EXPECT_TRUE(r.phase1.empty());
}

// ---- eta bootstrap: bit-identical at every thread count ----

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A testbed of its own, so host ids (and with them every simulated
/// route) do not depend on which other tests ran in this process.
std::unique_ptr<Testbed> eta_bed() {
  TestbedConfig cfg;
  cfg.seed = 505;
  cfg.constellation.n_anchors = 30;
  cfg.constellation.n_probes = 30;
  return std::make_unique<Testbed>(cfg);
}

/// `remote` pingable proxies across the northern mid-latitudes, then
/// `loopback` tunnels whose proxy is the client itself. Loopback pings
/// never jitter, so every loopback shares one indirect minimum.
std::vector<netsim::ProxySession> eta_fleet(Testbed& bed, std::size_t remote,
                                            std::size_t loopback) {
  netsim::HostProfile cp;
  cp.location = {50.11, 8.68};
  const netsim::HostId client = bed.add_host(cp);
  netsim::ProxyBehavior pingable;
  pingable.icmp_responds = true;
  std::vector<netsim::ProxySession> sessions;
  Rng rng(31);
  for (std::size_t i = 0; i < remote; ++i) {
    netsim::HostProfile pp;
    pp.location = {rng.uniform(30.0, 60.0), rng.uniform(-120.0, 140.0)};
    sessions.emplace_back(bed.net(), client, bed.add_host(pp), pingable);
  }
  for (std::size_t i = 0; i < loopback; ++i)
    sessions.emplace_back(bed.net(), client, client, pingable);
  return sessions;
}

/// estimate_eta with each session on a fresh lane of a fixed seed, so
/// every call sees the same pings.
EtaEstimate eta_at(Testbed& bed, std::vector<netsim::ProxySession>& sessions,
                   int threads) {
  std::vector<netsim::Lane> lanes;
  lanes.reserve(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    lanes.push_back(bed.net().make_lane(7000 + i));
    sessions[i].set_lane(&lanes[i]);
  }
  EtaEstimate e = estimate_eta(sessions, 5, threads);
  for (auto& s : sessions) s.set_lane(nullptr);
  return e;
}

void expect_eta_bits_equal(const EtaEstimate& want, const EtaEstimate& got,
                           int threads) {
  EXPECT_EQ(bits(got.eta), bits(want.eta)) << "threads=" << threads;
  EXPECT_EQ(bits(got.eta_ci_low), bits(want.eta_ci_low))
      << "threads=" << threads;
  EXPECT_EQ(bits(got.eta_ci_high), bits(want.eta_ci_high))
      << "threads=" << threads;
  EXPECT_EQ(bits(got.r_squared), bits(want.r_squared))
      << "threads=" << threads;
  EXPECT_EQ(got.n_proxies, want.n_proxies) << "threads=" << threads;
}

TEST(EtaBootstrap, FleetBitIdenticalAcrossThreadCounts) {
  auto bed = eta_bed();
  auto sessions = eta_fleet(*bed, 200, 0);
  const EtaEstimate serial = eta_at(*bed, sessions, 1);
  EXPECT_EQ(serial.n_proxies, 200u);
  EXPECT_LT(serial.eta_ci_low, serial.eta_ci_high);
  // Pinned bits: a change in the order the resample indices are drawn
  // from the bootstrap stream moves them.
  EXPECT_EQ(bits(serial.eta), 0x3fdfdb3ec4de0b6fULL);
  EXPECT_EQ(bits(serial.eta_ci_low), 0x3fdfbbf8faf62eb5ULL);
  EXPECT_EQ(bits(serial.eta_ci_high), 0x3fdff8b8b7eda3eeULL);
  for (int threads : {2, 4, 0})
    expect_eta_bits_equal(serial, eta_at(*bed, sessions, threads), threads);
}

TEST(EtaBootstrap, DegenerateResamplesSkippedAtEveryThreadCount) {
  // Two remote proxies and four loopbacks: a resample that draws only
  // loopbacks has constant x and must be skipped, whichever worker ran
  // it, without moving any kept slope.
  auto bed = eta_bed();
  auto sessions = eta_fleet(*bed, 2, 4);
  const bool prev = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();
  const EtaEstimate serial = eta_at(*bed, sessions, 1);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  for (int threads : {2, 4, 0})
    expect_eta_bits_equal(serial, eta_at(*bed, sessions, threads), threads);
  obs::set_metrics_enabled(prev);
  EXPECT_EQ(serial.n_proxies, 6u);
  EXPECT_LE(serial.eta_ci_low, serial.eta);
  EXPECT_GE(serial.eta_ci_high, serial.eta);
  EXPECT_EQ(bits(serial.eta_ci_low), 0x3fe015376f7ab2cfULL);
  EXPECT_EQ(bits(serial.eta_ci_high), 0x3fe015619e01039eULL);
#if AGEO_OBS_ENABLED
  std::uint64_t kept = 0;
  for (const auto& c : snap.counters)
    if (c.name == "measure.eta.bootstrap_fits") kept = c.value;
  EXPECT_GE(kept, 20u);
  EXPECT_LT(kept, 200u);  // some resamples took the skip path
#else
  EXPECT_TRUE(snap.counters.empty());
#endif
}

}  // namespace
}  // namespace ageo::measure
