#include "measure/testbed.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "geo/geodesy.hpp"
#include "obs/obs.hpp"

namespace ageo::measure {

namespace {

const TestbedConfig& checked(const TestbedConfig& config) {
  detail::require(config.calibration_samples >= 1,
                  "Testbed: calibration_samples must be >= 1");
  return config;
}

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : config_(checked(config)),
      world_(),
      net_(world::HubGraph::builtin(), config.seed, config.latency) {
  world::ConstellationConfig cc = config_.constellation;
  cc.seed = config_.seed;
  landmarks_ = world::generate_constellation(world_, cc);
  landmark_hosts_.reserve(landmarks_.size());
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    const auto& lm = landmarks_[i];
    netsim::HostProfile p;
    p.location = lm.location;
    p.net_quality = lm.net_quality;
    p.icmp_responds = true;
    p.tcp_port80_open = lm.listens_port80;
    landmark_hosts_.push_back(net_.add_host(p));
    if (lm.is_anchor) anchor_ids_.push_back(i);
  }
  calibrate();
}

void Testbed::recalibrate() {
  store_ = calib::CalibrationStore();
  calibrate();
}

void Testbed::calibrate() {
  // Each landmark's calibration scatter: minimum one-way delay (RTT/2)
  // versus great-circle distance. Peers are every anchor plus the
  // nearest probes — the RIPE mesh records probe-anchor pings too, and
  // those short-haul pairs are what keep bestlines honest at small
  // distances (without them, a landmark extrapolates its long-haul
  // envelope and underestimates nearby targets; cf. paper Fig. 10).
  //
  // Every pair draws its samples on the network's default lane, in pair
  // order, so the scatter is one serial stream. The fits are left to
  // the store: each model family fits when first read (or when an
  // Auditor asks for the families its audit reads).
  AGEO_STAGE_SPAN("measure", "testbed.calibrate");
  const int samples = config_.calibration_samples;
  std::vector<geo::Vec3> vec;
  vec.reserve(landmarks_.size());
  for (const auto& lm : landmarks_) vec.push_back(geo::to_vec3(lm.location));

  auto measure_pair = [&](std::size_t i, std::size_t j) {
    const double best = net_.min_sample_rtt_ms(landmark_hosts_[i],
                                               landmark_hosts_[j], samples);
    return calib::CalibPoint{geo::arc_distance_km(vec[i], vec[j]),
                             best / 2.0};
  };

  // Nearest-probe peers per landmark.
  std::vector<std::size_t> probe_ids;
  for (std::size_t i = 0; i < landmarks_.size(); ++i)
    if (!landmarks_[i].is_anchor) probe_ids.push_back(i);
  constexpr std::size_t kNearProbePeers = 30;
  // km from landmark i, filled for every probe before i's partial_sort.
  std::vector<double> km(landmarks_.size());

  {
    AGEO_STAGE_SPAN("measure", "testbed.sample");
    for (std::size_t i = 0; i < landmarks_.size(); ++i) {
      calib::CalibData data;
      if (landmarks_[i].is_anchor || config_.calibrate_probes) {
        data.reserve(anchor_ids_.size() + kNearProbePeers);
        for (std::size_t a : anchor_ids_) {
          if (a == i) continue;
          data.push_back(measure_pair(i, a));
        }
        // The closest probes contribute short-haul calibration points.
        std::vector<std::size_t> near = probe_ids;
        std::erase(near, i);
        std::size_t take = std::min(kNearProbePeers, near.size());
        for (std::size_t p : near)
          km[p] = geo::arc_distance_km(vec[i], vec[p]);
        std::partial_sort(
            near.begin(), near.begin() + static_cast<std::ptrdiff_t>(take),
            near.end(),
            [&](std::size_t a, std::size_t b) { return km[a] < km[b]; });
        for (std::size_t k = 0; k < take; ++k)
          data.push_back(measure_pair(i, near[k]));
      }
      store_.add_landmark(std::move(data));
    }
  }
  store_.fit_all();
}

}  // namespace ageo::measure
