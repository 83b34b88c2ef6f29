#include "world/hubs.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <tuple>

#include "common/error.hpp"
#include "geo/geodesy.hpp"

namespace ageo::world {

namespace {
using C = Continent;

struct HubSpec {
  const char* name;
  double lat, lon;
  C continent;
  double congestion_ms;
};

// clang-format off
const HubSpec kHubSpecs[] = {
    // Europe: dense, efficient.
    {"Frankfurt",  50.11,   8.68, C::kEurope, 0.4},
    {"Amsterdam",  52.37,   4.90, C::kEurope, 0.4},
    {"London",     51.50,  -0.12, C::kEurope, 0.4},
    {"Paris",      48.85,   2.35, C::kEurope, 0.5},
    {"Stockholm",  59.33,  18.07, C::kEurope, 0.6},
    {"Prague",     50.08,  14.44, C::kEurope, 0.6},
    {"Warsaw",     52.23,  21.01, C::kEurope, 0.8},
    {"Madrid",     40.42,  -3.70, C::kEurope, 0.8},
    {"Milan",      45.46,   9.19, C::kEurope, 0.7},
    {"Vienna",     48.21,  16.37, C::kEurope, 0.6},
    {"Moscow",     55.75,  37.62, C::kEurope, 1.5},
    {"Istanbul",   41.01,  28.98, C::kEurope, 1.8},
    // North America.
    {"NewYork",    40.71, -74.00, C::kNorthAmerica, 0.4},
    {"Ashburn",    39.04, -77.49, C::kNorthAmerica, 0.3},
    {"Chicago",    41.88, -87.63, C::kNorthAmerica, 0.4},
    {"Dallas",     32.78, -96.80, C::kNorthAmerica, 0.5},
    {"LosAngeles", 34.05,-118.24, C::kNorthAmerica, 0.5},
    {"Seattle",    47.61,-122.33, C::kNorthAmerica, 0.5},
    {"Miami",      25.76, -80.19, C::kNorthAmerica, 0.6},
    {"Toronto",    43.65, -79.38, C::kNorthAmerica, 0.5},
    // South America: fewer hubs, more congestion.
    {"SaoPaulo",  -23.55, -46.63, C::kSouthAmerica, 1.2},
    {"BuenosAires",-34.60, -58.38, C::kSouthAmerica, 1.5},
    {"Santiago",  -33.45, -70.67, C::kSouthAmerica, 1.5},
    {"Bogota",      4.71, -74.07, C::kSouthAmerica, 1.8},
    {"Lima",      -12.05, -77.04, C::kSouthAmerica, 2.0},
    // Africa & Middle East: sparse; much traffic transits Europe/Dubai.
    {"Johannesburg",-26.20, 28.05, C::kAfrica, 2.0},
    {"Cairo",      30.04,  31.24, C::kAfrica, 2.5},
    {"Lagos",       6.52,   3.38, C::kAfrica, 3.0},
    {"Nairobi",    -1.29,  36.82, C::kAfrica, 2.5},
    {"Dubai",      25.20,  55.27, C::kAfrica, 1.2},
    {"TelAviv",    32.07,  34.78, C::kAfrica, 1.0},
    // Asia: capacity varies wildly; China hubs are heavily congested.
    {"Mumbai",     19.08,  72.88, C::kAsia, 2.0},
    {"Chennai",    13.08,  80.27, C::kAsia, 2.2},
    {"Singapore",   1.35, 103.82, C::kAsia, 0.8},
    {"HongKong",   22.32, 114.17, C::kAsia, 1.0},
    {"Tokyo",      35.68, 139.69, C::kAsia, 0.7},
    {"Seoul",      37.57, 126.98, C::kAsia, 0.8},
    {"Taipei",     25.03, 121.56, C::kAsia, 1.0},
    {"Shanghai",   31.23, 121.47, C::kAsia, 3.5},
    {"Beijing",    39.90, 116.40, C::kAsia, 3.5},
    {"Bangkok",    13.76, 100.50, C::kAsia, 1.8},
    {"Jakarta",    -6.21, 106.85, C::kAsia, 2.2},
    {"Karachi",    24.86,  67.00, C::kAsia, 2.8},
    // Oceania & Australia.
    {"Sydney",    -33.87, 151.21, C::kAustralia, 0.8},
    {"Perth",     -31.95, 115.86, C::kAustralia, 1.0},
    {"Auckland",  -36.85, 174.76, C::kOceania, 1.0},
};

struct EdgeSpec {
  const char* a;
  const char* b;
  double inflation;
};

// Cable systems. Inflation multiplies great-circle distance to model
// cable slack and routing detours along the edge.
const EdgeSpec kEdgeSpecs[] = {
    // Intra-Europe mesh (selected; dense enough to be near-complete).
    {"Frankfurt", "Amsterdam", 1.30}, {"Frankfurt", "London", 1.30},
    {"Frankfurt", "Paris", 1.30},     {"Frankfurt", "Prague", 1.25},
    {"Frankfurt", "Vienna", 1.25},    {"Frankfurt", "Milan", 1.30},
    {"Frankfurt", "Warsaw", 1.30},    {"Frankfurt", "Stockholm", 1.35},
    {"Frankfurt", "Moscow", 1.40},    {"Frankfurt", "Istanbul", 1.45},
    {"Amsterdam", "London", 1.25},    {"Amsterdam", "Paris", 1.30},
    {"Amsterdam", "Stockholm", 1.30}, {"London", "Paris", 1.25},
    {"London", "Madrid", 1.35},       {"Paris", "Madrid", 1.30},
    {"Paris", "Milan", 1.30},         {"Milan", "Vienna", 1.30},
    {"Milan", "Istanbul", 1.40},      {"Vienna", "Prague", 1.20},
    {"Vienna", "Warsaw", 1.30},       {"Vienna", "Istanbul", 1.40},
    {"Prague", "Warsaw", 1.25},       {"Warsaw", "Moscow", 1.35},
    {"Stockholm", "Moscow", 1.40},    {"Madrid", "Milan", 1.35},
    // Transatlantic.
    {"London", "NewYork", 1.15},      {"Amsterdam", "NewYork", 1.18},
    {"Paris", "Ashburn", 1.18},       {"London", "Toronto", 1.20},
    {"Madrid", "Miami", 1.25},
    // Intra-North-America mesh.
    {"NewYork", "Ashburn", 1.20},     {"NewYork", "Chicago", 1.20},
    {"NewYork", "Toronto", 1.20},     {"Ashburn", "Chicago", 1.20},
    {"Ashburn", "Dallas", 1.25},      {"Ashburn", "Miami", 1.20},
    {"Chicago", "Dallas", 1.20},      {"Chicago", "Seattle", 1.25},
    {"Chicago", "Toronto", 1.15},     {"Dallas", "LosAngeles", 1.20},
    {"Dallas", "Miami", 1.25},        {"LosAngeles", "Seattle", 1.20},
    // North <-> South America.
    {"Miami", "Bogota", 1.25},        {"Miami", "SaoPaulo", 1.30},
    {"Bogota", "Lima", 1.35},         {"Lima", "Santiago", 1.35},
    {"SaoPaulo", "BuenosAires", 1.25},{"BuenosAires", "Santiago", 1.30},
    {"SaoPaulo", "Madrid", 1.30},     {"SaoPaulo", "Lagos", 1.40},
    // Europe <-> Africa / Middle East.
    {"London", "Lagos", 1.30},        {"Milan", "Cairo", 1.30},
    {"London", "Johannesburg", 1.35}, {"Milan", "TelAviv", 1.25},
    {"Frankfurt", "TelAviv", 1.30},   {"Istanbul", "Dubai", 1.35},
    {"Cairo", "Dubai", 1.25},         {"Cairo", "Nairobi", 1.40},
    {"Nairobi", "Johannesburg", 1.40},{"Lagos", "Johannesburg", 1.50},
    {"TelAviv", "Cairo", 1.40},
    // Middle East / Asia.
    {"Dubai", "Mumbai", 1.20},        {"Dubai", "Karachi", 1.25},
    {"Dubai", "Singapore", 1.30},     {"Karachi", "Mumbai", 1.40},
    {"Mumbai", "Chennai", 1.30},      {"Chennai", "Singapore", 1.25},
    // Intra-Asia.
    {"Singapore", "HongKong", 1.25},  {"Singapore", "Jakarta", 1.15},
    {"Singapore", "Bangkok", 1.25},   {"Bangkok", "HongKong", 1.35},
    {"HongKong", "Tokyo", 1.25},      {"HongKong", "Taipei", 1.20},
    {"HongKong", "Shanghai", 1.30},   {"Taipei", "Tokyo", 1.25},
    {"Tokyo", "Seoul", 1.20},         {"Seoul", "Beijing", 1.40},
    {"Shanghai", "Beijing", 1.30},    {"Moscow", "Beijing", 1.45},
    // Oceania / Australia.
    {"Sydney", "Auckland", 1.20},     {"Sydney", "Singapore", 1.30},
    {"Sydney", "LosAngeles", 1.20},   {"Auckland", "LosAngeles", 1.25},
    {"Perth", "Singapore", 1.25},     {"Sydney", "Perth", 1.25},
    {"Sydney", "Tokyo", 1.30},        {"Jakarta", "Perth", 1.30},
    // Pacific islands hang off Sydney/Auckland; Guam off Tokyo.
    {"Auckland", "Tokyo", 1.35},
};
// clang-format on
}  // namespace

HubGraph::HubGraph(
    std::vector<Hub> hubs,
    std::vector<std::tuple<std::size_t, std::size_t, double>> edges)
    : hubs_(std::move(hubs)) {
  const std::size_t n = hubs_.size();
  detail::require(n > 0, "HubGraph: need at least one hub");
  hub_vec_.reserve(n);
  for (const auto& h : hubs_) hub_vec_.push_back(geo::to_vec3(h.location));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  dist_.assign(n * n, kInf);
  hops_.assign(n * n, 0);
  congest_.assign(n * n, 0.0);
  // `next_` table for path reconstruction of congestion sums.
  std::vector<std::size_t> next(n * n, SIZE_MAX);

  for (std::size_t i = 0; i < n; ++i) dist_[idx(i, i)] = 0.0;
  for (auto& [a, b, inflation] : edges) {
    detail::require(a < n && b < n && a != b, "HubGraph: bad edge endpoint");
    detail::require(inflation >= 1.0, "HubGraph: inflation must be >= 1");
    double d = geo::arc_distance_km(hub_vec_[a], hub_vec_[b]) * inflation;
    if (d < dist_[idx(a, b)]) {
      dist_[idx(a, b)] = dist_[idx(b, a)] = d;
      hops_[idx(a, b)] = hops_[idx(b, a)] = 1;
      next[idx(a, b)] = b;
      next[idx(b, a)] = a;
    }
  }
  // Floyd–Warshall with path reconstruction.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = dist_[idx(i, k)];
      if (dik == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        double alt = dik + dist_[idx(k, j)];
        if (alt < dist_[idx(i, j)]) {
          dist_[idx(i, j)] = alt;
          hops_[idx(i, j)] = hops_[idx(i, k)] + hops_[idx(k, j)];
          next[idx(i, j)] = next[idx(i, k)];
        }
      }
    }
  }
  // Congestion along each shortest path (every hub visited, inclusive).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        congest_[idx(i, j)] = hubs_[i].congestion_ms;
        continue;
      }
      if (dist_[idx(i, j)] == kInf) continue;
      double sum = hubs_[i].congestion_ms;
      std::size_t cur = i;
      // Bounded walk: shortest paths have < n edges.
      for (std::size_t step = 0; step < n && cur != j; ++step) {
        cur = next[idx(cur, j)];
        if (cur == SIZE_MAX) break;
        sum += hubs_[cur].congestion_ms;
      }
      congest_[idx(i, j)] = sum;
    }
  }
}

std::size_t HubGraph::nearest_hub(const geo::LatLon& p) const noexcept {
  const geo::Vec3 v = geo::to_vec3(p);
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < hub_vec_.size(); ++i) {
    double d = geo::arc_distance_km(v, hub_vec_[i]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

double HubGraph::route_km(std::size_t a, std::size_t b) const {
  detail::require(a < size() && b < size(), "HubGraph::route_km: bad index");
  return dist_[idx(a, b)];
}

int HubGraph::route_hops(std::size_t a, std::size_t b) const {
  detail::require(a < size() && b < size(), "HubGraph::route_hops: bad index");
  return hops_[idx(a, b)];
}

double HubGraph::route_congestion_ms(std::size_t a, std::size_t b) const {
  detail::require(a < size() && b < size(),
                  "HubGraph::route_congestion_ms: bad index");
  return congest_[idx(a, b)];
}

const HubGraph& HubGraph::builtin() {
  static const HubGraph graph = [] {
    std::vector<Hub> hubs;
    for (const auto& s : kHubSpecs) {
      hubs.push_back(Hub{s.name, geo::make_latlon(s.lat, s.lon), s.continent,
                         s.congestion_ms});
    }
    auto find = [&](std::string_view name) -> std::size_t {
      for (std::size_t i = 0; i < hubs.size(); ++i)
        if (hubs[i].name == name) return i;
      throw InvalidArgument("HubGraph: unknown hub name in edge table");
    };
    std::vector<std::tuple<std::size_t, std::size_t, double>> edges;
    for (const auto& e : kEdgeSpecs)
      edges.emplace_back(find(e.a), find(e.b), e.inflation);
    return HubGraph(std::move(hubs), std::move(edges));
  }();
  return graph;
}

}  // namespace ageo::world
