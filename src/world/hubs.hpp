// The backbone hub graph of the synthetic Internet.
//
// Packets between two hosts travel host -> nearest hub -> (hub graph
// shortest path) -> nearest hub -> host. Hubs model major internet
// exchange cities; edges model real submarine/terrestrial cable systems
// with an inflation factor for cable slack. This produces the circuitous,
// region-dependent routing the paper identifies as the central obstacle
// for delay-based geolocation: southern Africa reaches Asia via Europe or
// Dubai, Pacific islands via Sydney, and intra-China paths are congested.
#pragma once

#include <cstddef>
#include <string>
#include <tuple>
#include <vector>

#include "geo/latlon.hpp"
#include "geo/vec3.hpp"
#include "world/continent.hpp"

namespace ageo::world {

struct Hub {
  std::string name;
  geo::LatLon location;
  Continent continent = Continent::kEurope;
  /// Mean queueing delay added per transit of this hub, ms. High values
  /// model congested regions (the paper's explanation for why simple
  /// delay models beat sophisticated ones outside Europe/NA).
  double congestion_ms = 0.5;
};

class HubGraph {
 public:
  /// The built-in ~45-hub world backbone.
  static const HubGraph& builtin();

  /// Construct from explicit hubs and edges; `edges` entries are
  /// (hub index a, hub index b, inflation factor >= 1). Distances are
  /// great-circle * inflation. Throws on invalid indices or factors.
  HubGraph(std::vector<Hub> hubs,
           std::vector<std::tuple<std::size_t, std::size_t, double>> edges);

  std::size_t size() const noexcept { return hubs_.size(); }
  const Hub& hub(std::size_t i) const { return hubs_.at(i); }
  const std::vector<Hub>& hubs() const noexcept { return hubs_; }

  /// Index of the hub nearest to a point (great-circle); ties go to the
  /// lowest index.
  std::size_t nearest_hub(const geo::LatLon& p) const noexcept;

  /// Cable length of the shortest hub-graph path, km (already inflated).
  /// Disconnected pairs return +infinity; i == j returns 0.
  double route_km(std::size_t a, std::size_t b) const;

  /// Number of edges on that shortest path (0 when a == b).
  int route_hops(std::size_t a, std::size_t b) const;

  /// Sum of congestion_ms over every hub the path transits (endpoints
  /// included once each).
  double route_congestion_ms(std::size_t a, std::size_t b) const;

 private:
  std::vector<Hub> hubs_;
  std::vector<geo::Vec3> hub_vec_;  // to_vec3 of each hub's location
  std::vector<double> dist_;      // n*n shortest-path km
  std::vector<int> hops_;         // n*n edge counts
  std::vector<double> congest_;   // n*n summed congestion

  std::size_t idx(std::size_t a, std::size_t b) const noexcept {
    return a * hubs_.size() + b;
  }
};

}  // namespace ageo::world
