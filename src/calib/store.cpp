#include "calib/store.hpp"

#include <bit>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace ageo::calib {

namespace {

/// One model per landmark: fit_one(data, slot) on up to `threads`
/// workers. Slot i depends on data[i] only, so any thread count writes
/// the same bits.
template <typename Model, typename FitOne>
std::vector<Model> fit_each(const std::vector<CalibData>& data, int threads,
                            FitOne fit_one) {
  std::vector<Model> models(data.size());
  parallel_for(data.size(), threads,
               [&](std::size_t i) { fit_one(data[i], models[i]); });
  return models;
}

std::vector<CbgModel> fit_bestlines(const std::vector<CalibData>& data,
                                    CbgOptions options, bool slowline,
                                    int threads) {
  options.enforce_slowline = slowline;
  return fit_each<CbgModel>(data, threads,
                            [&](const CalibData& d, CbgModel& m) {
                              if (!d.empty()) m = fit_cbg_bestline(d, options);
                            });
}

}  // namespace

std::size_t CalibrationStore::add_landmark(CalibData data) {
  data_.push_back(std::move(data));
  fits_.reset();
  return data_.size() - 1;
}

std::span<const CalibPoint> CalibrationStore::data(std::size_t id) const {
  check_id(id);
  return data_[id];
}

void CalibrationStore::check_id(std::size_t id) const {
  detail::require(id < data_.size(), "CalibrationStore: unknown landmark id");
}

void CalibrationStore::fit_all(const CbgOptions& cbg_options,
                               const OctantOptions& octant_options,
                               const SpotterOptions& spotter_options) {
  fits_ = std::make_unique<Fits>();
  fits_->cbg_options = cbg_options;
  fits_->octant_options = octant_options;
  fits_->spotter_options = spotter_options;
}

void CalibrationStore::fit(unsigned families, int threads) const {
  detail::require(families < (1u << kFamilies),
                  "CalibrationStore::fit: unknown model family");
  for (int k = 0; k < kFamilies; ++k)
    if (families & (1u << k))
      fitted_family(static_cast<Family>(1u << k), threads);
}

CalibrationStore::Fits& CalibrationStore::fitted_family(Family family,
                                                        int threads) const {
  detail::require(fits_ != nullptr, "CalibrationStore: call fit_all() first");
  Fits& f = *fits_;
  std::call_once(f.once[std::countr_zero(static_cast<unsigned>(family))], [&] {
    switch (family) {
      case kCbg: {
        AGEO_STAGE_SPAN("calib", "fit.cbg");
        AGEO_COUNT("calib.family_fits.cbg");
        f.cbg = fit_bestlines(data_, f.cbg_options, false, threads);
        break;
      }
      case kCbgSlowline: {
        AGEO_STAGE_SPAN("calib", "fit.cbg_slowline");
        AGEO_COUNT("calib.family_fits.cbg_slowline");
        f.cbg_slowline = fit_bestlines(data_, f.cbg_options, true, threads);
        break;
      }
      case kOctant: {
        AGEO_STAGE_SPAN("calib", "fit.octant");
        AGEO_COUNT("calib.family_fits.octant");
        f.octant = fit_each<OctantModel>(
            data_, threads, [&](const CalibData& d, OctantModel& m) {
              if (d.size() >= 3) m = fit_octant(d, f.octant_options);
            });
        break;
      }
      case kSpotter: {
        AGEO_STAGE_SPAN("calib", "fit.spotter");
        AGEO_COUNT("calib.family_fits.spotter");
        std::size_t total = 0;
        for (const CalibData& d : data_) total += d.size();
        CalibData pooled;
        pooled.reserve(total);
        for (const CalibData& d : data_)
          pooled.insert(pooled.end(), d.begin(), d.end());
        if (pooled.size() >=
            2 * static_cast<std::size_t>(f.spotter_options.n_bins))
          f.spotter = fit_spotter(pooled, f.spotter_options);
        break;
      }
    }
  });
  return f;
}

const CbgModel& CalibrationStore::cbg(std::size_t id) const {
  const Fits& f = fitted_family(kCbg);
  check_id(id);
  return f.cbg[id];
}

const CbgModel& CalibrationStore::cbg_slowline(std::size_t id) const {
  const Fits& f = fitted_family(kCbgSlowline);
  check_id(id);
  return f.cbg_slowline[id];
}

const OctantModel& CalibrationStore::octant(std::size_t id) const {
  const Fits& f = fitted_family(kOctant);
  check_id(id);
  return f.octant[id];
}

const SpotterModel& CalibrationStore::spotter() const {
  return fitted_family(kSpotter).spotter;
}

}  // namespace ageo::calib
