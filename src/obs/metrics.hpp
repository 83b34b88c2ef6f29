// The process-wide metrics registry.
//
// Counters, gauges, and fixed log-bucket histograms for the audit stack
// (RTT ms, per-proxy audit µs, ring-multiply ns, cache hit rates).
// Updates go to thread-local shards — an increment is two relaxed
// atomic ops on memory only its own thread writes — and a snapshot
// merges the shards with plain integer sums, which are associative and
// commutative, so the merged totals are independent of which worker
// thread did what: a threads=N audit snapshots byte-identically to the
// serial run (see DESIGN.md §10 for the full argument, including why
// histogram sums are accumulated in fixed point).
//
// Telemetry never feeds back into algorithm state: nothing in the
// pipeline reads a metric, so instrumenting a code path cannot perturb
// a result bit. Metrics whose *values* are wall-clock measurements
// (durations) are tagged Clock::kWallClock and can be filtered out of
// an export, leaving the deterministic view the equivalence tests pin.
//
// Runtime switch: when metrics_enabled() is false every instrumentation
// macro (obs.hpp) is a single relaxed load and a predicted branch.
// Compile-time switch: configuring with -DAGEO_OBS=OFF defines
// AGEO_OBS_ENABLED=0 and the macros vanish entirely; this header's API
// remains so that non-macro callers (snapshot plumbing) still compile.
//
// The registry is enabled at startup when AGEO_METRICS is set in the
// environment ("0" and "" mean off); any other value except "1"/"on"/
// "stdout"/"-" is a path the final snapshot is written to (Prometheus
// text) at process exit.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef AGEO_OBS_ENABLED
#define AGEO_OBS_ENABLED 1
#endif

namespace ageo::obs {

/// Whether metric updates are recorded right now (cheap: relaxed load).
bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

/// What a metric's value is made of. Deterministic metrics depend only
/// on the seeded workload (counts, simulated delays, areas) and must be
/// bit-identical across thread counts; wall-clock metrics are real
/// durations and are excluded from determinism comparisons.
enum class Clock : std::uint8_t { kDeterministic, kWallClock };

// ---- log-bucket histograms ----

/// Fixed log-spaced bucket layout: boundaries at
/// lo * 2^(k / per_octave) for k = 0.. until `hi` is covered. Bucket k
/// holds values v with bound[k-1] < v <= bound[k] ("le" semantics, like
/// Prometheus); bucket 0 is everything <= lo, the last bucket is the
/// overflow above the final boundary.
struct HistogramSpec {
  double lo = 1.0;
  double hi = 1e6;
  int per_octave = 4;
  Clock clock = Clock::kDeterministic;
};

/// The finite bucket boundaries a spec expands to (capped at
/// kMaxHistBoundaries; degenerate specs are clamped, never rejected).
std::vector<double> log_bucket_boundaries(const HistogramSpec& spec);

/// Index of the bucket `v` falls in: first k with bounds[k] >= v, or
/// bounds.size() (the overflow bucket) when v exceeds every boundary.
std::size_t bucket_index(const std::vector<double>& bounds,
                         double v) noexcept;

// ---- metric handles ----

inline constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

struct CounterId {
  std::uint32_t slot = kInvalidSlot;
  bool valid() const noexcept { return slot != kInvalidSlot; }
};
struct GaugeId {
  std::uint32_t slot = kInvalidSlot;
  bool valid() const noexcept { return slot != kInvalidSlot; }
};
struct HistogramId {
  std::uint32_t slot = kInvalidSlot;
  bool valid() const noexcept { return slot != kInvalidSlot; }
};

// ---- snapshots ----

struct CounterSample {
  std::string name;
  Clock clock = Clock::kDeterministic;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  Clock clock = Clock::kDeterministic;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  Clock clock = Clock::kDeterministic;
  std::vector<double> bounds;         ///< finite upper boundaries
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 buckets
  std::uint64_t count = 0;
  double sum = 0.0;  ///< exact fixed-point accumulation, exported here
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;

  /// Estimate the q-quantile (q in [0,1]) from the bucket counts by
  /// log-interpolating inside the bucket the rank falls in — the
  /// natural interpolation for log-spaced boundaries. Exact at the
  /// recorded min/max, clamped to [min, max], 0 when count == 0.
  /// Deterministic: derives only from the merged bucket counts, so a
  /// deterministic histogram's quantiles are thread-count-invariant.
  double quantile(double q) const noexcept;
};

/// A merged, named view of every registered metric, sorted by name.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Prometheus text exposition format (names prefixed "ageo_", dots
  /// mapped to underscores). With include_wall_clock false only the
  /// deterministic metrics are written — that serialization is
  /// byte-identical across thread counts for a seeded workload.
  std::string to_prometheus(bool include_wall_clock = true) const;
  /// {"counters":{...},"gauges":{...},"histograms":{...}}, same filter.
  std::string to_json(bool include_wall_clock = true) const;
};

// ---- the registry ----

/// Capacity limits. Registration past a cap returns an invalid id and
/// the site becomes a no-op — telemetry must degrade, never abort.
inline constexpr std::size_t kMaxCounters = 192;
inline constexpr std::size_t kMaxGauges = 64;
inline constexpr std::size_t kMaxHistograms = 48;
inline constexpr std::size_t kMaxHistBoundaries = 95;

class Registry {
 public:
  /// The process-wide registry (leaked singleton: safe to touch from
  /// thread-local destructors and atexit handlers).
  static Registry& global();

  /// Register-or-look-up by name; the first registration fixes the
  /// clock/spec, later calls return the existing slot. Thread-safe.
  CounterId counter(std::string_view name,
                    Clock clock = Clock::kDeterministic);
  GaugeId gauge(std::string_view name, Clock clock = Clock::kDeterministic);
  HistogramId histogram(std::string_view name, HistogramSpec spec = {});

  /// Updates. Invalid ids are ignored. add/observe touch only the
  /// calling thread's shard; set stores to a central atomic (gauges are
  /// meant to be set from serial sections — last write wins).
  void add(CounterId id, std::uint64_t n = 1) noexcept;
  void set(GaugeId id, double v) noexcept;
  void observe(HistogramId id, double v) noexcept;

  /// Merge every shard and return the named view. Exact when the
  /// process is quiescent (no concurrent updates in flight); updates
  /// race benignly (relaxed atomics), never tear.
  Snapshot snapshot() const;

  /// Zero every value (all shards, gauges) but keep registrations, so
  /// ids cached in call-site statics stay valid. Call at quiescence.
  void reset();

  std::size_t counter_count() const;
  std::size_t gauge_count() const;
  std::size_t histogram_count() const;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry();
  ~Registry() = delete;  // leaked singleton

  struct Shard;
  struct Impl;
  Impl* impl_;

  Shard* my_shard() noexcept;
  friend struct TlsShardRef;
};

/// RAII wall-clock timer recording into a histogram on destruction.
/// `scale` converts elapsed nanoseconds into the histogram's unit
/// (1.0 = ns, 1e-3 = µs, 1e-6 = ms). An invalid id disarms it.
class ScopedTimer {
 public:
  explicit ScopedTimer(HistogramId id, double scale = 1.0) noexcept
      : id_(id), scale_(scale) {
    if (id_.valid()) t0_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (!id_.valid()) return;
    const auto dt = std::chrono::steady_clock::now() - t0_;
    Registry::global().observe(
        id_, static_cast<double>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                     .count()) *
                 scale_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  HistogramId id_;
  double scale_;
  std::chrono::steady_clock::time_point t0_{};
};

/// Shortest round-trip decimal form of v (deterministic: the first
/// precision in 1..17 whose %.*g output parses back bit-identically).
std::string format_double(double v);

namespace detail {

/// The AGEO_METRICS/AGEO_TRACE/AGEO_JOURNAL file writer: `text` to
/// `path`. A failed open, short write or failed close (where a full disk
/// shows) is reported on stderr, naming `what`; returns success.
bool write_export(const std::string& path, std::string_view text,
                  const char* what);

}  // namespace detail

}  // namespace ageo::obs
