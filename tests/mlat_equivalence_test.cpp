// Equivalence suite for the zero-allocation fast paths.
//
// Three families of oracle are pinned here:
//   1. The fused annulus kernel (CapScanPlan::intersect_annulus_into)
//      against materialize-then-AND.
//   2. The sparse multi-plane largest_consistent_subset against the
//      retained dense reference::largest_consistent_subset (≤64 disks),
//      and against a count-based oracle for >64 disks.
//   3. Arena/cache invariance: every mlat entry point returns the same
//      bits whether or not a Scratch arena or plan cache is supplied,
//      and the hard solves' bits are those of naive grid::reference
//      rasters (a cache-less solve runs transient plans, so it is no
//      oracle for the cached one).
//
// All comparisons are on raw Region words — bit-identical, not "close".
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "geo/geodesy.hpp"
#include "geo/units.hpp"
#include "grid/cap_cache.hpp"
#include "grid/field.hpp"
#include "grid/raster.hpp"
#include "grid/scratch.hpp"
#include "grid/window.hpp"
#include "mlat/multilateration.hpp"
#include "mlat/refine.hpp"
#include "netsim/network.hpp"
#include "world/hubs.hpp"
#include "oracles.hpp"

namespace ageo::mlat {
namespace {

geo::LatLon random_point(Rng& rng) {
  return {rng.uniform(-85.0, 85.0), rng.uniform(-180.0, 180.0)};
}

grid::Region random_base(const grid::Grid& g, Rng& rng, int flavour) {
  switch (flavour % 3) {
    case 0: {
      grid::Region r(g);
      r.fill();
      return r;
    }
    case 1: {
      const double lo = rng.uniform(-80.0, 0.0);
      return grid::rasterize_lat_band(g, lo, rng.uniform(lo, 80.0));
    }
    default:
      return grid::rasterize_cap(
          g, geo::Cap{random_point(rng), rng.uniform(200.0, 6000.0)});
  }
}

std::vector<DiskConstraint> random_disks(Rng& rng, std::size_t n,
                                         double rmin, double rmax) {
  std::vector<DiskConstraint> disks;
  disks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    disks.push_back({random_point(rng), rng.uniform(rmin, rmax)});
  }
  return disks;
}

TEST(FusedKernels, IntersectMatchesMaterialized) {
  grid::Grid g(1.0);
  grid::CapPlanCache cache(64);
  Rng rng(20260807, "fused_kernels");
  for (int iter = 0; iter < 60; ++iter) {
    const geo::LatLon c = random_point(rng);
    auto plan = cache.plan(g, c);
    const double outer = rng.uniform(20.0, 12000.0);
    const double inner = (iter % 3 == 0) ? 0.0 : rng.uniform(0.0, outer);
    const grid::Region base = random_base(g, rng, iter);

    grid::Region annulus(g);
    plan->rasterize_annulus(inner, outer, annulus);

    grid::Region and_oracle = base;
    and_oracle &= annulus;
    grid::Region fused_and = base;
    plan->intersect_annulus_into(inner, outer, fused_and,
                                 grid::full_window(g));
    ASSERT_EQ(and_oracle.words(), fused_and.words())
        << "intersect iter " << iter << " center (" << c.lat_deg << ", "
        << c.lon_deg << ") inner " << inner << " outer " << outer;
  }
}

TEST(FusedKernels, EmptyAndDegenerateAnnuli) {
  grid::Grid g(2.0);
  grid::CapPlanCache cache(8);
  auto plan = cache.plan(g, {40.0, -3.0});
  grid::Region base = grid::rasterize_lat_band(g, -30.0, 60.0);

  const grid::Window all_rows = grid::full_window(g);

  // Empty annulus (outer < inner after clamping): intersect empties.
  // Same as the materialized oracle.
  grid::Region annulus(g);
  plan->rasterize_annulus(500.0, 100.0, annulus);
  EXPECT_TRUE(annulus.empty());
  grid::Region fused_and = base;
  plan->intersect_annulus_into(500.0, 100.0, fused_and, all_rows);
  EXPECT_TRUE(fused_and.empty());

  // Whole-earth disk: intersect is a no-op.
  grid::Region all(g);
  plan->rasterize_annulus(0.0, 21000.0, all);
  grid::Region fused_all = base;
  plan->intersect_annulus_into(0.0, 21000.0, fused_all, all_rows);
  grid::Region oracle_all = base;
  oracle_all &= all;
  EXPECT_EQ(oracle_all.words(), fused_all.words());
}

// Every (cache, scratch) combination of the sparse engine against the
// dense reference, masked and unmasked, across sizes up to the old
// 64-constraint ceiling.
TEST(SubsetEquivalence, SparseMatchesDenseReference) {
  grid::Grid g(2.0);
  Rng rng(99, "subset_equivalence");
  const grid::Region mask = grid::rasterize_lat_band(g, -60.0, 72.0);
  for (std::size_t n : {1u, 2u, 7u, 25u, 60u, 64u}) {
    // Clustered disks with a few far-flung outliers so the maximum
    // subset is a strict subset of the input.
    auto disks = random_disks(rng, n, 300.0, 5000.0);
    const geo::LatLon hub = random_point(rng);
    for (std::size_t i = 0; i + 1 < disks.size(); i += 2) {
      disks[i].center = {hub.lat_deg + rng.uniform(-5.0, 5.0),
                         hub.lon_deg + rng.uniform(-5.0, 5.0)};
    }
    for (const grid::Region* m : {static_cast<const grid::Region*>(nullptr),
                                  &mask}) {
      grid::CapPlanCache cache(128);
      const SubsetResult oracle =
          reference::largest_consistent_subset(g, disks, m);
      const SubsetResult oracle_cached =
          reference::largest_consistent_subset(g, disks, m, &cache);
      ASSERT_EQ(oracle.n_used, oracle_cached.n_used);
      ASSERT_EQ(oracle.used, oracle_cached.used);
      ASSERT_EQ(oracle.region.words(), oracle_cached.region.words());

      grid::Scratch* arena = &grid::Scratch::tls();
      for (grid::CapPlanCache* pc :
           {static_cast<grid::CapPlanCache*>(nullptr), &cache}) {
        for (grid::Scratch* sc :
             {static_cast<grid::Scratch*>(nullptr), arena}) {
          const SubsetResult fast =
              largest_consistent_subset(g, disks, m, pc, sc);
          EXPECT_EQ(oracle.n_used, fast.n_used)
              << "n=" << n << " mask=" << (m != nullptr)
              << " cache=" << (pc != nullptr) << " arena=" << (sc != nullptr);
          EXPECT_EQ(oracle.used, fast.used) << "n=" << n;
          EXPECT_EQ(oracle.region.words(), fast.region.words()) << "n=" << n;
        }
      }
    }
  }
}

// Count-based oracle valid for any number of disks: a cell's coverage
// cardinality is the number of padded disks containing it; n_used is the
// maximum over candidates; the region is reconstructed from the fast
// path's own used-sets only through independent per-disk rasterization.
TEST(SubsetEquivalence, Over64AgainstCountOracle) {
  grid::Grid g(4.0);
  Rng rng(7, "subset_over64");
  const grid::Region mask = grid::rasterize_lat_band(g, -70.0, 70.0);
  for (std::size_t n : {65u, 100u, 130u}) {
    auto disks = random_disks(rng, n, 400.0, 4000.0);
    const geo::LatLon hub = random_point(rng);
    for (std::size_t i = 0; i < disks.size(); i += 3) {
      disks[i].center = {hub.lat_deg + rng.uniform(-4.0, 4.0),
                         hub.lon_deg + rng.uniform(-4.0, 4.0)};
    }
    for (const grid::Region* m : {static_cast<const grid::Region*>(nullptr),
                                  &mask}) {
      // Independent per-disk membership via the plain rasterizer.
      const double pad = conservative_pad_km(g);
      std::vector<grid::Region> members;
      members.reserve(n);
      for (const auto& d : disks) {
        members.push_back(
            grid::rasterize_cap(g, geo::Cap{d.center, d.max_km + pad}));
      }
      const auto candidate = [&](std::size_t idx) {
        return m == nullptr || m->test(idx);
      };
      std::vector<std::uint32_t> count(g.size(), 0);
      for (const auto& r : members) {
        r.for_each_cell([&](std::size_t idx) { ++count[idx]; });
      }
      std::size_t best = 0;
      for (std::size_t idx = 0; idx < g.size(); ++idx) {
        if (candidate(idx) && count[idx] > best) best = count[idx];
      }

      grid::CapPlanCache cache(256);
      const SubsetResult fast = largest_consistent_subset(
          g, disks, m, &cache, &grid::Scratch::tls());
      EXPECT_EQ(best, fast.n_used) << "n=" << n << " mask=" << (m != nullptr);
      // used[i] ⇒ disk i covers some maximum-coverage candidate cell.
      for (std::size_t i = 0; i < n; ++i) {
        if (!fast.used[i]) continue;
        bool covers_a_winner = false;
        members[i].for_each_cell([&](std::size_t idx) {
          if (candidate(idx) && count[idx] == best) covers_a_winner = true;
        });
        EXPECT_TRUE(covers_a_winner) << "disk " << i;
      }
      // The region is exactly the candidate cells at maximum coverage: a
      // cell containing some maximum set has coverage popcount >= best,
      // and best is the maximum, so == best; conversely a cell at best
      // is itself a maximum set and must be included.
      grid::Region oracle_region(g);
      if (best > 0) {
        for (std::size_t idx = 0; idx < g.size(); ++idx) {
          if (candidate(idx) && count[idx] == best) oracle_region.set(idx);
        }
      }
      EXPECT_EQ(oracle_region.words(), fast.region.words())
          << "n=" << n << " mask=" << (m != nullptr);
      // And the fast path is invariant to cache/arena choices.
      const SubsetResult plain = largest_consistent_subset(g, disks, m);
      EXPECT_EQ(plain.n_used, fast.n_used);
      EXPECT_EQ(plain.used, fast.used);
      EXPECT_EQ(plain.region.words(), fast.region.words());
    }
  }
}

// The ring engine against the dense ring oracle, same matrix as the
// disk test: every (cache, scratch) combination, masked and unmasked.
TEST(SubsetEquivalence, RingSparseMatchesDenseReference) {
  grid::Grid g(2.0);
  Rng rng(41, "ring_subset_equivalence");
  const grid::Region mask = grid::rasterize_lat_band(g, -60.0, 72.0);
  for (std::size_t n : {1u, 2u, 9u, 33u, 64u}) {
    std::vector<RingConstraint> rings;
    rings.reserve(n);
    const geo::LatLon hub = random_point(rng);
    for (std::size_t i = 0; i < n; ++i) {
      geo::LatLon c = (i % 2 == 0)
                          ? geo::LatLon{hub.lat_deg + rng.uniform(-6.0, 6.0),
                                        hub.lon_deg + rng.uniform(-6.0, 6.0)}
                          : random_point(rng);
      const double inner = rng.uniform(0.0, 2500.0);
      rings.push_back({c, inner, inner + rng.uniform(300.0, 3000.0)});
    }
    for (const grid::Region* m : {static_cast<const grid::Region*>(nullptr),
                                  &mask}) {
      grid::CapPlanCache cache(128);
      const SubsetResult oracle =
          reference::largest_consistent_subset(
              g, std::span<const RingConstraint>(rings), m);
      grid::Scratch* arena = &grid::Scratch::tls();
      for (grid::CapPlanCache* pc :
           {static_cast<grid::CapPlanCache*>(nullptr), &cache}) {
        for (grid::Scratch* sc :
             {static_cast<grid::Scratch*>(nullptr), arena}) {
          const SubsetResult fast = largest_consistent_subset(
              g, std::span<const RingConstraint>(rings), m, pc, sc);
          EXPECT_EQ(oracle.n_used, fast.n_used)
              << "n=" << n << " mask=" << (m != nullptr)
              << " cache=" << (pc != nullptr) << " arena=" << (sc != nullptr);
          EXPECT_EQ(oracle.used, fast.used) << "n=" << n;
          EXPECT_EQ(oracle.region.words(), fast.region.words()) << "n=" << n;
        }
      }
    }
  }
}

// >64 ring constraints derived from an actual Byzantine constellation:
// honest landmarks ring the truth, deflating landmarks produce rings too
// tight to contain it, and a colluding clique rings a fake rendezvous.
// The three camps are mutually inconsistent by construction; the sparse
// engine must agree with the independent count oracle about who wins.
TEST(SubsetEquivalence, AdversarialRingsOver64AgainstCountOracle) {
  grid::Grid g(4.0);
  Rng rng(13, "byzantine_rings");
  const geo::LatLon truth{48.0, 11.0};
  const geo::LatLon fake{40.0, -100.0};

  netsim::Network net(world::HubGraph::builtin(), 23);
  netsim::HostProfile tp;
  tp.location = truth;
  const netsim::HostId target = net.add_host(tp);

  for (std::size_t n : {70u, 96u}) {
    std::vector<RingConstraint> rings;
    std::vector<netsim::HostId> hosts;
    rings.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      netsim::HostProfile lp;
      lp.location = random_point(rng);
      const netsim::HostId lm = net.add_host(lp);
      hosts.push_back(lm);
      if (i % 4 == 1) {
        net.set_adversary(lm, netsim::deflate_attack(0.35, 0.0));
      } else if (i % 4 == 3) {
        net.set_adversary(lm, netsim::collusion_attack(fake, 0, 0.0));
      }
    }
    netsim::Lane lane = net.make_lane(1000 + n);
    for (std::size_t i = 0; i < n; ++i) {
      auto rtt = net.icmp_ping_ms(hosts[i], target, &lane);
      ASSERT_TRUE(rtt.has_value());
      // A crude but monotone delay→distance band around the implied
      // great-circle estimate; deflated/forged delays yield rings that
      // cannot contain the truth.
      const double d = (*rtt / 2.0) * geo::kFibreSpeedKmPerMs;
      rings.push_back({net.host(hosts[i]).location, 0.45 * d, 1.05 * d});
    }

    const double pad = conservative_pad_km(g);
    std::vector<grid::Region> members;
    members.reserve(n);
    for (const auto& r : rings) {
      members.push_back(grid::rasterize_ring(
          g, geo::Ring{r.center, std::max(0.0, r.min_km - pad),
                       r.max_km + pad}));
    }
    std::vector<std::uint32_t> count(g.size(), 0);
    for (const auto& r : members)
      r.for_each_cell([&](std::size_t idx) { ++count[idx]; });
    std::size_t best = 0;
    for (std::size_t idx = 0; idx < g.size(); ++idx)
      if (count[idx] > best) best = count[idx];

    grid::CapPlanCache cache(256);
    const SubsetResult fast = largest_consistent_subset(
        g, std::span<const RingConstraint>(rings), nullptr, &cache,
        &grid::Scratch::tls());
    EXPECT_EQ(best, fast.n_used) << "n=" << n;
    ASSERT_GT(fast.n_used, 0u);
    EXPECT_LT(fast.n_used, n) << "adversaries should not all survive";
    grid::Region oracle_region(g);
    for (std::size_t idx = 0; idx < g.size(); ++idx)
      if (count[idx] == best) oracle_region.set(idx);
    EXPECT_EQ(oracle_region.words(), fast.region.words()) << "n=" << n;
    // Cache/arena invariance on the adversarial shape too.
    const SubsetResult plain = largest_consistent_subset(
        g, std::span<const RingConstraint>(rings));
    EXPECT_EQ(plain.n_used, fast.n_used);
    EXPECT_EQ(plain.used, fast.used);
    EXPECT_EQ(plain.region.words(), fast.region.words());
  }
}

// The flat solves run the intersect kernel's per-cell tail once the
// region drops under 4,096 cells. Pin that tail against the dense
// reference, which shares no code with it: consistent constraint sets
// whose intersection is a few hundred cells, listed loosest first so the
// kernel's tightest-first reordering matters.
TEST(MlatEquivalence, FlatSparseTailMatchesReference) {
  grid::Grid g(1.0);
  Rng rng(20261017, "flat_sparse_tail");
  const grid::Region mask = grid::rasterize_lat_band(g, -60.0, 80.0);
  grid::Scratch* arena = &grid::Scratch::tls();
  for (int iter = 0; iter < 8; ++iter) {
    const geo::LatLon target{rng.uniform(-55.0, 75.0),
                             rng.uniform(-180.0, 180.0)};
    std::vector<DiskConstraint> disks;
    std::vector<RingConstraint> rings;
    for (int i = 0; i < 10; ++i) {
      const geo::LatLon lm = random_point(rng);
      const double d = geo::distance_km(lm, target);
      disks.push_back({lm, d + rng.uniform(100.0, 900.0)});
      rings.push_back({lm, std::max(0.0, d - rng.uniform(100.0, 900.0)),
                       d + rng.uniform(100.0, 900.0)});
    }
    std::sort(disks.begin(), disks.end(),
              [](const DiskConstraint& x, const DiskConstraint& y) {
                return x.max_km > y.max_km;
              });
    for (const grid::Region* m : {static_cast<const grid::Region*>(nullptr),
                                  &mask}) {
      const SubsetResult d_ref =
          reference::largest_consistent_subset(g, disks, m);
      const SubsetResult r_ref =
          reference::largest_consistent_subset(g, rings, m);
      ASSERT_EQ(d_ref.n_used, disks.size()) << iter;
      ASSERT_LT(d_ref.region.count(), 4096u) << iter;
      grid::CapPlanCache cache(32);
      for (grid::CapPlanCache* pc :
           {static_cast<grid::CapPlanCache*>(nullptr), &cache}) {
        for (grid::Scratch* sc :
             {static_cast<grid::Scratch*>(nullptr), arena}) {
          const std::string where = "iter=" + std::to_string(iter) +
                                    " mask=" + std::to_string(m != nullptr) +
                                    " cache=" + std::to_string(pc != nullptr);
          const SubsetResult d =
              largest_consistent_subset(g, disks, m, pc, sc);
          EXPECT_EQ(d_ref.n_used, d.n_used) << where;
          EXPECT_EQ(d_ref.used, d.used) << where;
          EXPECT_EQ(d_ref.region.words(), d.region.words()) << where;
          EXPECT_EQ(d_ref.region.words(),
                    intersect_disks(g, disks, m, pc, sc).words())
              << where;
          const SubsetResult r =
              largest_consistent_subset(g, rings, m, pc, sc);
          EXPECT_EQ(r_ref.n_used, r.n_used) << where;
          EXPECT_EQ(r_ref.used, r.used) << where;
          EXPECT_EQ(r_ref.region.words(), r.region.words()) << where;
          if (r_ref.n_used == rings.size()) {
            EXPECT_EQ(r_ref.region.words(),
                      intersect_rings(g, rings, m, pc, sc).words())
                << where;
          }
        }
      }
    }
  }
}

// ---- naive oracles for the cache/arena invariance tests ---------------
//
// With or without a plan cache, every solve runs the same plan scanner
// (a cache-less solve builds transient plans), so the uncached solve is
// no independent oracle for the cached one. These rebuild each padded
// constraint with the naive grid::reference scan instead.

std::vector<grid::Region> naive_disk_regions(
    const grid::Grid& g, const std::vector<DiskConstraint>& disks) {
  const double pad = conservative_pad_km(g);
  std::vector<grid::Region> out;
  out.reserve(disks.size());
  for (const auto& d : disks)
    out.push_back(
        grid::reference::rasterize_cap(g, geo::Cap{d.center, d.max_km + pad}));
  return out;
}

std::vector<grid::Region> naive_ring_regions(
    const grid::Grid& g, const std::vector<RingConstraint>& rings) {
  const double pad = conservative_pad_km(g);
  std::vector<grid::Region> out;
  out.reserve(rings.size());
  for (const auto& r : rings)
    out.push_back(grid::reference::rasterize_ring(
        g, geo::Ring{r.center, std::max(0.0, r.min_km - pad), r.max_km + pad}));
  return out;
}

/// `mask` (or the whole grid) ANDed with every region.
grid::Region naive_intersection(const grid::Grid& g,
                                const std::vector<grid::Region>& regions,
                                const grid::Region* mask) {
  grid::Region out(g);
  if (mask)
    out = *mask;
  else
    out.fill();
  for (const auto& r : regions) out &= r;
  return out;
}

/// The subset solve's answer from the regions: the candidate cells of
/// maximum coverage, the constraints covering any of them, and that
/// maximum. For a consistent set this is naive_intersection with every
/// constraint used.
SubsetResult naive_subset(const grid::Grid& g,
                          const std::vector<grid::Region>& regions,
                          const grid::Region* mask) {
  std::vector<std::uint32_t> count(g.size(), 0);
  for (const auto& r : regions)
    r.for_each_cell([&](std::size_t idx) { ++count[idx]; });
  const auto candidate = [&](std::size_t idx) {
    return mask == nullptr || mask->test(idx);
  };
  SubsetResult out;
  out.region = grid::Region(g);
  out.used.assign(regions.size(), false);
  for (std::size_t idx = 0; idx < g.size(); ++idx)
    if (candidate(idx) && count[idx] > out.n_used) out.n_used = count[idx];
  if (out.n_used == 0) return out;
  for (std::size_t idx = 0; idx < g.size(); ++idx)
    if (candidate(idx) && count[idx] == out.n_used) out.region.set(idx);
  for (std::size_t i = 0; i < regions.size(); ++i)
    regions[i].for_each_cell([&](std::size_t idx) {
      if (out.region.test(idx)) out.used[i] = true;
    });
  return out;
}

/// `centers.size()` disks and rings that all contain `target`: each
/// outer radius is the center's distance to the target plus a slack,
/// each inner radius that distance minus a slack, so both sets are
/// consistent.
void constraints_around(Rng& rng, const geo::LatLon& target,
                        const std::vector<geo::LatLon>& centers,
                        std::vector<DiskConstraint>& disks,
                        std::vector<RingConstraint>& rings) {
  disks.clear();
  rings.clear();
  for (const geo::LatLon& c : centers) {
    const double d = geo::distance_km(c, target);
    const double outer = d + rng.uniform(50.0, 900.0);
    disks.push_back({c, outer});
    rings.push_back({c, std::max(0.0, d - rng.uniform(50.0, 900.0)), outer});
  }
}

TEST(ArenaInvariance, IntersectDisksAndRings) {
  Rng rng(11, "arena_intersect");
  struct Set {
    std::string name;
    double cell;
    std::vector<DiskConstraint> disks;
    std::vector<RingConstraint> rings;
    bool consistent;
  };
  std::vector<Set> sets;
  {
    // Random disks anywhere (usually an empty intersection), and rings
    // inside them.
    Set s{"random", 1.0, random_disks(rng, 12, 500.0, 6000.0), {}, false};
    for (const auto& d : s.disks)
      s.rings.push_back(
          {d.center, d.max_km * rng.uniform(0.1, 0.8), d.max_km});
    sets.push_back(std::move(s));
  }
  for (const double cell : {1.0, 0.25}) {
    // Centers above 89 degrees (and on the pole): their rows near the
    // pole take the plan's whole-row path (Q < kMinQ).
    std::vector<geo::LatLon> polar{{90.0, 0.0}, {-89.5, 10.0}};
    for (int i = 0; i < 8; ++i)
      polar.push_back({rng.uniform(89.05, 89.95), rng.uniform(-180.0, 180.0)});
    Set p{"polar", cell, {}, {}, true};
    constraints_around(rng, {89.7, 40.0}, polar, p.disks, p.rings);
    // The center near the south pole sits ~19,900 km from the target: its
    // disk covers (nearly) the whole sphere and its ring is a cap-shaped
    // band around the north pole.
    sets.push_back(std::move(p));

    // Centers on the antimeridian, written as both +180 and -180.
    std::vector<geo::LatLon> seam;
    for (int i = 0; i < 10; ++i)
      seam.push_back({rng.uniform(-50.0, 50.0), i % 2 ? 180.0 : -180.0});
    Set m{"antimeridian", cell, {}, {}, true};
    constraints_around(rng, {rng.uniform(-30.0, 30.0), 179.8}, seam, m.disks,
                       m.rings);
    sets.push_back(std::move(m));

    // More than 64 constraints around one target.
    const geo::LatLon target{30.0, -100.0};
    std::vector<geo::LatLon> many;
    for (int i = 0; i < 70; ++i)
      many.push_back({target.lat_deg + rng.uniform(-15.0, 15.0),
                      target.lon_deg + rng.uniform(-20.0, 20.0)});
    Set w{"over64", cell, {}, {}, true};
    constraints_around(rng, target, many, w.disks, w.rings);
    sets.push_back(std::move(w));
  }

  grid::Scratch* arena = &grid::Scratch::tls();
  for (const Set& set : sets) {
    grid::Grid g(set.cell);
    const grid::Region band = grid::rasterize_lat_band(g, -55.0, 75.0);
    const grid::Region north = grid::rasterize_lat_band(g, -55.0, 90.0);
    const std::vector<grid::Region> d_naive = naive_disk_regions(g, set.disks);
    const std::vector<grid::Region> r_naive = naive_ring_regions(g, set.rings);
    grid::CapPlanCache cache(128);
    for (const grid::Region* mask :
         {static_cast<const grid::Region*>(nullptr), &band, &north}) {
      const grid::Region d_want = naive_intersection(g, d_naive, mask);
      const grid::Region r_want = naive_intersection(g, r_naive, mask);
      if (set.consistent && mask == nullptr) {
        ASSERT_FALSE(d_want.empty()) << set.name;
        ASSERT_FALSE(r_want.empty()) << set.name;
      }
      for (grid::CapPlanCache* pc :
           {static_cast<grid::CapPlanCache*>(nullptr), &cache}) {
        for (grid::Scratch* sc :
             {static_cast<grid::Scratch*>(nullptr), arena}) {
          const std::string where =
              set.name + " cell=" + std::to_string(set.cell) +
              " mask=" + (mask == nullptr ? "none" : mask == &band ? "band"
                                                                   : "north") +
              " cache=" + std::to_string(pc != nullptr) +
              " arena=" + std::to_string(sc != nullptr);
          EXPECT_EQ(d_want.words(),
                    intersect_disks(g, set.disks, mask, pc, sc).words())
              << where;
          EXPECT_EQ(r_want.words(),
                    intersect_rings(g, set.rings, mask, pc, sc).words())
              << where;
        }
      }
    }
  }
}

TEST(ArenaInvariance, FuseGaussianRings) {
  grid::Grid g(1.0);
  Rng rng(13, "arena_fuse");
  const grid::Region mask = grid::rasterize_lat_band(g, -55.0, 75.0);
  std::vector<GaussianConstraint> rings;
  for (int i = 0; i < 8; ++i) {
    rings.push_back(
        {random_point(rng), rng.uniform(300.0, 4000.0),
         rng.uniform(50.0, 400.0)});
  }
  grid::CapPlanCache cache(64);
  grid::Scratch* arena = &grid::Scratch::tls();

  grid::Field oracle = reference::fuse_gaussian_rings(g, rings, &mask);
  const grid::Region cr_oracle = oracle.credible_region(0.95);
  for (grid::CapPlanCache* pc :
       {static_cast<grid::CapPlanCache*>(nullptr), &cache}) {
    for (grid::Scratch* sc : {static_cast<grid::Scratch*>(nullptr), arena}) {
      grid::Field f(g);
      f.set_scratch(sc);
      f.apply_mask(mask);
      multiply_rings_into(g, rings, pc, f);
      f.normalize();
      EXPECT_EQ(cr_oracle.words(), f.credible_region(0.95).words())
          << "cache=" << (pc != nullptr) << " arena=" << (sc != nullptr);
      f.set_scratch(nullptr);

      // The pooled sibling: a leased Field, masked as it is acquired.
      auto lease = grid::Scratch::field(sc, g, &mask);
      multiply_rings_into(g, rings, pc, lease.get());
      lease.get().normalize();
      EXPECT_EQ(cr_oracle.words(),
                lease.get().credible_region(0.95).words())
          << "pooled, cache=" << (pc != nullptr)
          << " arena=" << (sc != nullptr);
    }
  }
}

// Leased buffers are dirty on purpose; a fresh lease must still behave
// like a fresh allocation. Run a polluting workload, then re-verify a
// pinned result. Every expected answer comes from the naive oracle.
TEST(ArenaInvariance, ReusedBuffersDoNotLeakStateAcrossCalls) {
  grid::Grid g(2.0);
  Rng rng(17, "arena_reuse");
  grid::CapPlanCache cache(64);
  grid::Scratch* arena = &grid::Scratch::tls();
  // Centers above 89 degrees put the plan's whole-row path (Q < kMinQ)
  // into the coverage accumulator and the refined level-0 counts.
  const auto with_polar = [&](std::vector<DiskConstraint> d) {
    for (const double lat : {89.3, 89.8, -89.6})
      d.push_back({{lat, rng.uniform(-180.0, 180.0)},
                   rng.uniform(300.0, 5000.0)});
    return d;
  };
  auto disks = with_polar(random_disks(rng, 30, 300.0, 5000.0));
  const SubsetResult pinned =
      naive_subset(g, naive_disk_regions(g, disks), nullptr);
  ASSERT_LT(pinned.n_used, disks.size()) << "the pinned set must conflict";
  const auto expect_subset = [](const SubsetResult& want,
                                const SubsetResult& got,
                                const std::string& where) {
    EXPECT_EQ(want.n_used, got.n_used) << where;
    EXPECT_EQ(want.used, got.used) << where;
    EXPECT_EQ(want.region.words(), got.region.words()) << where;
  };
  // The refined coverage sweep without a cache: its level-0 counts come
  // from transient plans on the coarse grids.
  RefineContext ladder(g, RefineSchedule::parse("12,4"));
  expect_subset(pinned,
                largest_consistent_subset(g, disks, nullptr, nullptr, arena,
                                          &ladder),
                "refined, no cache");
  for (int iter = 0; iter < 10; ++iter) {
    // Pollute the pools with different-shaped workloads: more than 64
    // disks, so the flat sweep keeps several coverage planes.
    auto other = with_polar(random_disks(rng, 70 + 7 * iter, 200.0, 8000.0));
    const SubsetResult other_want =
        naive_subset(g, naive_disk_regions(g, other), nullptr);
    for (grid::CapPlanCache* pc :
         {&cache, static_cast<grid::CapPlanCache*>(nullptr)}) {
      const std::string where = "iter=" + std::to_string(iter) +
                                " cache=" + std::to_string(pc != nullptr);
      expect_subset(other_want,
                    largest_consistent_subset(g, other, nullptr, pc, arena),
                    "over64 " + where);
      (void)intersect_disks(g, other, nullptr, pc, arena);
      expect_subset(pinned,
                    largest_consistent_subset(g, disks, nullptr, pc, arena),
                    "pinned " + where);
    }
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace ageo::mlat
