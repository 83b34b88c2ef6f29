#include "bench_util.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ageo::bench {

namespace {
/// `parse(text)` of environment variable `var`, or `fallback` when it is
/// unset or empty. `parse` throws InvalidArgument on garbage, which exits
/// 2 with the variable named.
template <class T, class Parse>
T knob(const char* var, T fallback, Parse parse) {
  const char* text = std::getenv(var);
  if (!text || !*text) return fallback;
  try {
    return parse(text);
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "%s: %s\n", var, e.what());
    std::exit(2);
  }
}

/// `text` as an int in [lo, 2147483647]; otherwise throws
/// InvalidArgument "'<text>' is not <what> in [<lo>, 2147483647]".
int int_at_least(const char* text, int lo, const char* what) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo ||
      v > std::numeric_limits<int>::max())
    throw InvalidArgument("'" + std::string(text) + "' is not " + what +
                          " in [" + std::to_string(lo) + ", 2147483647]");
  return static_cast<int>(v);
}
}  // namespace

double scale_from_env() {
  return knob("AGEO_SCALE", 1.0, [](const char* text) {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (*end != '\0' || !(v > 0.0 && v <= 4.0))
      throw InvalidArgument("'" + std::string(text) +
                            "' is not a scale in (0, 4]");
    return v;
  });
}

int threads_from_env(int fallback) {
  return knob("AGEO_THREADS", fallback, [](const char* text) {
    return int_at_least(text, 0, "a thread count");
  });
}

assess::AuditAlgorithm algorithm_from_env() {
  return knob("AGEO_AUDIT_ALGO", assess::AuditAlgorithm::kCbgPlusPlus,
              assess::parse_algorithm);
}

int repeat_from_env() {
  return knob("AGEO_BENCH_REPEAT", 1, [](const char* text) {
    return int_at_least(text, 1, "a repeat count");
  });
}

double floor_from_env(const char* var, double fallback) {
  return knob(var, fallback, [](const char* text) {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (*end != '\0' || !(v >= 0.0 && std::isfinite(v)))
      throw InvalidArgument("'" + std::string(text) +
                            "' is not a finite number >= 0");
    return v;
  });
}

std::unique_ptr<measure::Testbed> standard_testbed(double scale) {
  measure::TestbedConfig cfg;
  cfg.seed = 2018;
  cfg.constellation.n_anchors =
      std::max(40, static_cast<int>(250 * std::min(1.0, scale * 2.0)));
  cfg.constellation.n_probes = std::max(80, static_cast<int>(800 * scale));
  return std::make_unique<measure::Testbed>(cfg);
}

world::Fleet standard_fleet(const world::WorldModel& w, double scale) {
  auto specs = world::default_provider_specs();
  for (auto& s : specs)
    s.target_servers = std::max(10, static_cast<int>(s.target_servers * scale));
  return world::generate_fleet(w, specs, 2018);
}

AuditBundle run_standard_audit(double scale, int threads,
                               const assess::AuditConfig& base) {
  assess::AuditConfig cfg = base;
  cfg.threads = threads_from_env(threads);
  cfg.algorithm = algorithm_from_env();
  AuditBundle bundle;
  auto t0 = std::chrono::steady_clock::now();
  bundle.bed = standard_testbed(scale);
  bundle.fleet = standard_fleet(bundle.bed->world(), scale);
  auto t1 = std::chrono::steady_clock::now();
  assess::Auditor auditor(*bundle.bed, cfg);
  bundle.report = auditor.run(bundle.fleet);
  auto t2 = std::chrono::steady_clock::now();
  bundle.setup_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  bundle.audit_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  return bundle;
}

std::vector<CrowdMeasurement> measure_crowd(
    measure::Testbed& bed, const std::vector<world::CrowdHost>& crowd,
    std::uint64_t seed) {
  measure::WebTool web;
  Rng rng(seed, "crowd-measure");
  std::vector<CrowdMeasurement> out;
  out.reserve(crowd.size());
  for (const auto& host : crowd) {
    netsim::HostProfile p;
    p.location = host.true_location;
    p.net_quality = host.net_quality;
    netsim::HostId id = bed.add_host(p);
    measure::ProbeFn probe = [&](std::size_t lm) -> std::optional<double> {
      auto sample =
          web.measure(bed.net(), id, bed.landmark_host(lm),
                      bed.landmarks()[lm].listens_port80, host.os,
                      host.browser, rng);
      return sample.elapsed_ms;
    };
    auto tp = measure::two_phase_measure(bed, probe, rng);
    CrowdMeasurement m;
    m.host = &host;
    m.observations = std::move(tp.observations);
    m.continent = tp.continent;
    out.push_back(std::move(m));
  }
  return out;
}

void print_quantiles(const std::string& name, std::vector<double> xs) {
  if (xs.empty()) {
    std::printf("%-28s (no data)\n", name.c_str());
    return;
  }
  std::sort(xs.begin(), xs.end());
  auto q = [&](double p) {
    return xs[static_cast<std::size_t>(p * (xs.size() - 1))];
  };
  std::printf("%-28s p10=%-10.1f p25=%-10.1f p50=%-10.1f p75=%-10.1f "
              "p90=%-10.1f max=%.1f\n",
              name.c_str(), q(0.10), q(0.25), q(0.50), q(0.75), q(0.90),
              xs.back());
}

void print_ecdf(const std::string& name, const std::vector<double>& xs,
                const std::vector<double>& at) {
  std::vector<double> sorted(xs);
  std::sort(sorted.begin(), sorted.end());
  std::printf("%-14s", name.c_str());
  for (double a : at) {
    auto it = std::upper_bound(sorted.begin(), sorted.end(), a);
    double f = sorted.empty()
                   ? 0.0
                   : static_cast<double>(it - sorted.begin()) /
                         static_cast<double>(sorted.size());
    std::printf("  %5.1f%%", 100.0 * f);
  }
  std::printf("\n");
}

}  // namespace ageo::bench
