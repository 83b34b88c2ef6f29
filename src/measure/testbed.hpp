// Testbed: world + network + landmark constellation + calibration, wired
// together the way the paper's measurement server wires RIPE Atlas
// (§4.1). Examples, tests and benches build one of these and go.
//
// Construction samples every landmark's calibration scatter (the
// minimum of `calibration_samples` pings per pair, drawn serially on
// the network's default lane) and seals it in the store; it fits no
// model. Each model family fits on its first read, or up front when an
// Auditor asks for the families its audit reads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "calib/store.hpp"
#include "netsim/network.hpp"
#include "world/constellation.hpp"
#include "world/hubs.hpp"
#include "world/world_model.hpp"

namespace ageo::measure {

struct TestbedConfig {
  std::uint64_t seed = 42;
  world::ConstellationConfig constellation;
  netsim::LatencyParams latency;
  /// Ping samples per landmark pair during calibration; the minimum is
  /// kept (the paper uses two weeks of RIPE mesh pings).
  int calibration_samples = 3;
  /// Calibrate probes as well as anchors (probes only ping anchors).
  bool calibrate_probes = true;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  const TestbedConfig& config() const noexcept { return config_; }
  const world::WorldModel& world() const noexcept { return world_; }
  const world::HubGraph& hubs() const noexcept {
    return world::HubGraph::builtin();
  }
  netsim::Network& net() noexcept { return net_; }
  const netsim::Network& net() const noexcept { return net_; }

  /// Landmarks; index == landmark id == CalibrationStore id.
  const std::vector<world::Landmark>& landmarks() const noexcept {
    return landmarks_;
  }
  /// Network host id of landmark i.
  netsim::HostId landmark_host(std::size_t i) const {
    return landmark_hosts_.at(i);
  }
  /// Indices of the anchor subset.
  const std::vector<std::size_t>& anchor_ids() const noexcept {
    return anchor_ids_;
  }

  const calib::CalibrationStore& store() const noexcept { return store_; }

  /// Register an additional host (proxy, client, crowd host) on the
  /// simulated network.
  netsim::HostId add_host(const netsim::HostProfile& profile) {
    return net_.add_host(profile);
  }

  /// Resample the calibration scatter — the paper's sliding two-week
  /// window (§4.1) — and discard every fitted model; each family refits
  /// from the new data on its next read. Landmark ids stay stable.
  void recalibrate();

 private:
  TestbedConfig config_;
  world::WorldModel world_;
  netsim::Network net_;
  std::vector<world::Landmark> landmarks_;
  std::vector<netsim::HostId> landmark_hosts_;
  std::vector<std::size_t> anchor_ids_;
  calib::CalibrationStore store_;

  void calibrate();
};

}  // namespace ageo::measure
