// Shared pieces of the audit benchmark driver (driver.cpp) and its
// per-layer adapter (layers.cpp): workload inputs derived from one seed,
// sample statistics, verdict digests and the metric sink.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "assess/audit.hpp"
#include "measure/testbed.hpp"
#include "serve/service.hpp"
#include "world/fleet.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Independent sub-seed for one input stream of a workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// The standard testbed at scale 1 (250 anchors + 800 probes), seeded
/// from the workload seed.
std::unique_ptr<ageo::measure::Testbed> make_testbed(std::uint64_t seed);
/// The seven-provider fleet at scale 1 (1974 proxies).
ageo::world::Fleet make_fleet(const ageo::measure::Testbed& bed,
                              std::uint64_t seed);

// ---- sample statistics --------------------------------------------------

double median(std::vector<double> xs);
/// Best pass of a run: the smallest time / the largest rate. This host's
/// speed drifts by up to 1.7x for tens of seconds at a time; a run's best
/// pass is what stays steady from run to run (see perfbench/README.md).
double lowest(const std::vector<double>& xs);
double highest(const std::vector<double>& xs);
/// Highest order statistic with at least ten samples above it, capped at
/// the nearest-rank p99; the median when there are fewer than 11.
double tail(std::vector<double> xs);
/// Percentile label of tail() for `n` samples, e.g. "p99" or "p95.2".
std::string tail_label(std::size_t n);

// ---- verdict digests ----------------------------------------------------

/// FNV-1a over every row's host index, region bits, constraint counts and
/// verdicts: two reports digest equal iff their verdict-bearing fields
/// are bit-identical.
std::uint64_t digest(std::span<const ageo::assess::ProxyAuditRow> rows);
std::string hex(std::uint64_t v);

struct Tally {
  std::size_t credible = 0, uncertain = 0, false_ = 0, empty = 0;
};
Tally tally(std::span<const ageo::assess::ProxyAuditRow> rows);

/// Two row sets agree in hosts, region bits, constraint counts and
/// verdicts (regions may live on two Grid objects of one cell size).
bool same_rows(std::span<const ageo::assess::ProxyAuditRow> a,
               std::span<const ageo::assess::ProxyAuditRow> b);

// ---- output -------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value = 0.0;
};

/// Collects metrics and correctness failures; prints the text report and
/// the final one-line JSON result.
class Sink {
 public:
  void metric(std::string name, std::string unit, double value);
  /// Record a correctness-gate failure (printed at once, to stderr).
  void fail(const std::string& what);
  bool ok() const noexcept { return failures_ == 0; }
  void print_json(std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::size_t failures_ = 0;
};

// ---- per-layer adapter (layers.cpp) -------------------------------------

/// Per-layer timings of one workload, measured by calling each layer's
/// public functions directly: either on a fresh testbed, or by replaying
/// the inputs a report recorded. Every replayed result is checked against
/// the recorded one; mismatches go to `sink.fail`.
struct LayerInputs {
  const ageo::assess::AuditConfig* config = nullptr;
  std::uint64_t seed = 0;
  /// The audit grid the rows' regions live on.
  const ageo::grid::Grid* grid = nullptr;
  /// Rows of a full audit with `config` (batch rows, or the service's
  /// bootstrap rows), the locate and assess replays' inputs and oracle.
  std::span<const ageo::assess::ProxyAuditRow> rows;
};

struct LayerTimes {
  double eta_s = 0.0, warm_s = 0.0, campaign_s = 0.0, locate_s = 0.0,
         claim_s = 0.0;
};

LayerTimes trace_layers(const LayerInputs& in, Sink& sink);

/// Check every row against a from-scratch Geolocator::locate on its own
/// observations (the streaming service's incremental-solve oracle).
void check_rows_against_locate(
    const ageo::assess::AuditConfig& config, const ageo::measure::Testbed& bed,
    const ageo::grid::Grid& grid,
    std::span<const ageo::assess::ProxyAuditRow> rows, Sink& sink);

/// Wall time of ProxyPool::rank for the service's next round, seconds.
double time_next_rank(const ageo::serve::AuditService& service);

}  // namespace perfbench
