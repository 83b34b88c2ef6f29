// Quickstart: locate one host with CBG++ on the synthetic Internet.
//
// Builds a testbed (world + network + landmark constellation +
// calibration), places a target in a known location, runs the two-phase
// measurement with the command-line tool, and prints the CBG++
// prediction region.
#include <cstdio>

#include "algos/cbg_pp.hpp"
#include "geo/geodesy.hpp"
#include "grid/ascii_map.hpp"
#include "measure/testbed.hpp"
#include "measure/tools.hpp"
#include "measure/two_phase.hpp"
#include "world/placement.hpp"

using namespace ageo;

int main() {
  std::printf("== ageo quickstart ==\n");

  // 1. A testbed: synthetic world, hub-routed network, 200 anchors + 400
  //    probes calibrated against each other.
  measure::TestbedConfig cfg;
  cfg.seed = 2018;
  cfg.constellation.n_anchors = 200;
  cfg.constellation.n_probes = 400;
  measure::Testbed bed(cfg);
  std::printf("testbed: %zu landmarks (%zu anchors), calibrated\n",
              bed.landmarks().size(), bed.anchor_ids().size());

  // 2. A target in Czechia, in a "known" location we will pretend not to
  //    know.
  auto cz = bed.world().find_country("cz").value();
  Rng rng(7, "quickstart");
  geo::LatLon truth = world::random_point_in_country(bed.world(), cz, rng);
  netsim::HostProfile target_profile;
  target_profile.location = truth;
  target_profile.net_quality = 0.8;
  netsim::HostId target = bed.add_host(target_profile);
  std::printf("target placed at %s (%s)\n", geo::to_string(truth).c_str(),
              bed.world().country(cz).name.c_str());

  // 3. Two-phase measurement: the target connects to landmarks over TCP.
  measure::ProbeFn probe = [&](std::size_t lm) {
    return measure::CliTool::measure_ms(bed.net(), target,
                                        bed.landmark_host(lm));
  };
  auto tp = measure::two_phase_measure(bed, probe, rng);
  std::printf("phase 1 put the target in %s; phase 2 measured %zu landmarks\n",
              std::string(world::to_string(tp.continent)).c_str(),
              tp.observations.size());

  // 4. CBG++ multilateration on a 1-degree grid, clipped to plausible
  //    land.
  grid::Grid g(1.0);
  grid::Region mask = bed.world().plausibility_mask(g);
  algos::CbgPlusPlusGeolocator locator;
  const algos::GeoEstimate est =
      locator.locate(g, bed.store(), tp.observations, &mask);
  const auto& region = est.region;

  std::printf("prediction region: %.0f km^2 over %zu cells\n",
              region.area_km2(), region.count());
  std::printf("  baseline subset: %zu disks, bestline subset: %zu disks, "
              "%zu discarded\n",
              est.prov.baseline_subset, est.constraints_used,
              est.prov.discarded_by_baseline);
  if (auto c = region.centroid()) {
    std::printf("  centroid: %s (%.0f km from the true location)\n",
                geo::to_string(*c).c_str(),
                geo::distance_km(*c, truth));
  }
  std::printf("  covers the true location: %s\n",
              region.contains(truth) ? "YES" : "no");

  auto raster = bed.world().country_raster(g);
  std::printf("  countries covered:");
  for (auto c : raster.countries_in(region))
    std::printf(" %s", bed.world().country(c).code.c_str());
  std::printf("\n");

  // 5. Show it (paper Fig. 1 style): '.' = land, '#' = prediction,
  //    'X' = the true location.
  grid::AsciiMap viz(120);
  viz.add_layer(mask, '.');
  viz.add_layer(region, '#');
  viz.add_marker(truth, 'X');
  viz.crop_latitude(33.0, 62.0);  // zoom to Europe
  std::printf("\n%s", viz.to_string().c_str());
  return 0;
}
