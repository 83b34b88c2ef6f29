#include "algos/geolocator.hpp"

#include "algos/cbg.hpp"
#include "algos/cbg_pp.hpp"
#include "algos/hybrid.hpp"
#include "algos/quasi_octant.hpp"
#include "algos/spotter.hpp"
#include "common/error.hpp"
#include "mlat/refine.hpp"
#include "obs/journal.hpp"

namespace ageo::algos {

void Geolocator::validate(const calib::CalibrationStore& store,
                          std::span<const Observation> observations) {
  detail::require(store.fitted(),
                  "Geolocator: calibration store is not fitted");
  detail::require(!observations.empty(),
                  "Geolocator: need at least one observation");
  for (const auto& ob : observations) {
    detail::require(ob.landmark_id < store.size(),
                    "Geolocator: observation references unknown landmark");
    detail::require(ob.one_way_delay_ms >= 0.0,
                    "Geolocator: negative delay");
    detail::require(geo::is_valid(ob.landmark),
                    "Geolocator: invalid landmark location");
  }
}

LadderRecorder::LadderRecorder(const mlat::RefineContext* refine,
                               const grid::Grid& g, const grid::Region* mask)
    : refined_(mlat::ladder_for(refine, g, mask) != nullptr) {
  if (!refined_ || !obs::journal_runtime_on()) return;
  trace_ = std::make_unique<mlat::RefineTrace>();
  mlat::set_refine_trace(trace_.get());
}

LadderRecorder::~LadderRecorder() {
  if (trace_) mlat::set_refine_trace(nullptr);
}

void LadderRecorder::stamp(GeoEstimate& est) const {
  est.prov.refined = refined_;
  if (!trace_) return;
  est.prov.ladder.reserve(trace_->levels.size());
  for (const auto& l : trace_->levels)
    est.prov.ladder.push_back({l.cell_deg, l.survivors});
}

LocatorMemo::~LocatorMemo() = default;

bool Geolocator::locate_update(LocatorMemo& /*memo*/, const grid::Grid& /*g*/,
                               const calib::CalibrationStore& /*store*/,
                               std::span<const Observation> /*observations*/,
                               std::size_t /*n_prev*/,
                               const grid::Region* /*mask*/,
                               GeoEstimate& /*out*/) const {
  return false;
}

std::vector<std::unique_ptr<Geolocator>> make_all_geolocators() {
  std::vector<std::unique_ptr<Geolocator>> out;
  out.push_back(std::make_unique<CbgGeolocator>());
  out.push_back(std::make_unique<QuasiOctantGeolocator>());
  out.push_back(std::make_unique<SpotterGeolocator>());
  out.push_back(std::make_unique<HybridGeolocator>());
  out.push_back(std::make_unique<CbgPlusPlusGeolocator>());
  return out;
}

}  // namespace ageo::algos
