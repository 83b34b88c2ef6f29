// CI matrix hook shared by the audit and service suites: the
// refine-one-level and refine-two-level CI entries set
// AGEO_REFINE_SCHEDULE, and every audit those suites configure through
// their config helpers then runs the coarse-to-fine driver. Reports are
// bit-identical either way — that is the property the suites then pin.
#pragma once

#include <cmath>
#include <cstdlib>
#include <vector>

#include "mlat/refine.hpp"

namespace ageo::test {

/// The AGEO_REFINE_SCHEDULE ladder fitted to an audit grid of
/// `cell_deg`: levels incompatible with that grid (the CI ladders target
/// finer audit grids) are dropped, and if none survive a level of twice
/// the cell size keeps the refined path engaged anyway. Disabled (flat
/// solves) when the variable is unset or names no level.
inline mlat::RefineSchedule refine_schedule_from_env(double cell_deg) {
  const char* env = std::getenv("AGEO_REFINE_SCHEDULE");
  if (env == nullptr) return {};
  mlat::RefineSchedule sched = mlat::RefineSchedule::parse(env);
  if (!sched.enabled()) return sched;
  std::vector<double> ok;
  double prev = cell_deg;
  for (auto it = sched.levels.rbegin(); it != sched.levels.rend(); ++it) {
    const double ratio = *it / prev;
    if (*it > prev && ratio == std::round(ratio) &&
        std::round(180.0 / *it) * *it == 180.0) {
      ok.insert(ok.begin(), *it);
      prev = *it;
    }
  }
  sched.levels = ok.empty() ? std::vector<double>{2.0 * cell_deg} : ok;
  return sched;
}

}  // namespace ageo::test
