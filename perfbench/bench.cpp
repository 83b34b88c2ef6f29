#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using namespace ageo;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): neighbouring seeds and streams map to
  // unrelated sub-seeds.
  std::uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::unique_ptr<measure::Testbed> make_testbed(std::uint64_t seed) {
  measure::TestbedConfig cfg;
  cfg.seed = derive_seed(seed, 1);
  cfg.constellation.n_anchors = 250;
  cfg.constellation.n_probes = 800;
  return std::make_unique<measure::Testbed>(cfg);
}

world::Fleet make_fleet(const measure::Testbed& bed, std::uint64_t seed) {
  const auto specs = world::default_provider_specs();
  return world::generate_fleet(bed.world(), specs, derive_seed(seed, 2));
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double lowest(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

double highest(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

namespace {
/// Index of tail() in a sorted sample of n.
std::size_t tail_index(std::size_t n) {
  const auto p99 = static_cast<std::size_t>(std::ceil(0.99 * n)) - 1;
  return std::min(p99, n - 11);
}
}  // namespace

double tail(std::vector<double> xs) {
  if (xs.size() < 11) return median(std::move(xs));
  std::sort(xs.begin(), xs.end());
  return xs[tail_index(xs.size())];
}

std::string tail_label(std::size_t n) {
  if (n < 11) return "p50";
  const double pct = 100.0 * static_cast<double>(tail_index(n) + 1) /
                     static_cast<double>(n);
  if (pct >= 99.0) return "p99";
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%.1f", pct);
  return buf;
}

std::uint64_t digest(std::span<const assess::ProxyAuditRow> rows) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& r : rows) {
    mix(r.host_index);
    for (std::uint64_t w : r.region.words()) mix(w);
    mix(r.constraints_total);
    mix(r.constraints_used);
    mix(static_cast<std::uint64_t>(r.verdict_raw));
    mix(static_cast<std::uint64_t>(r.verdict_dc));
    mix(static_cast<std::uint64_t>(r.verdict_final));
    mix(static_cast<std::uint64_t>(r.continent_verdict));
    mix(r.empty_prediction);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Tally tally(std::span<const assess::ProxyAuditRow> rows) {
  Tally t;
  for (const auto& r : rows) {
    switch (r.verdict_final) {
      case assess::Verdict::kCredible: ++t.credible; break;
      case assess::Verdict::kUncertain: ++t.uncertain; break;
      case assess::Verdict::kFalse: ++t.false_; break;
    }
    t.empty += r.empty_prediction;
  }
  return t;
}

bool same_rows(std::span<const assess::ProxyAuditRow> a,
               std::span<const assess::ProxyAuditRow> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.host_index == y.host_index &&
                             x.region.words() == y.region.words() &&
                             x.constraints_total == y.constraints_total &&
                             x.constraints_used == y.constraints_used &&
                             x.verdict_final == y.verdict_final &&
                             x.continent_verdict == y.continent_verdict;
                    });
}

void Sink::metric(std::string name, std::string unit, double value) {
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  std::printf("%s: %.6g %s\n", name.c_str(), value, unit.c_str());
  metrics_.push_back({std::move(name), std::move(unit), value});
}

void Sink::fail(const std::string& what) {
  std::fprintf(stderr, "CORRECTNESS: %s\n", what.c_str());
  ++failures_;
}

void Sink::print_json(std::uint64_t attempted, std::uint64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
