#include "obs/metrics.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

namespace ageo::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

constexpr std::uint64_t kPosInfBits = 0x7ff0000000000000ull;
constexpr std::uint64_t kNegInfBits = 0xfff0000000000000ull;

/// Histogram sums are accumulated as 2^16-fixed-point integers split
/// across two u64 words. Integer addition mod 2^128 is associative and
/// commutative, so the shard-merged sum is independent of merge order —
/// a double accumulator would not be.
constexpr double kSumScale = 65536.0;

std::uint64_t to_fixed(double v) noexcept {
  if (!(v > 0.0)) return 0;  // negatives and NaN contribute nothing
  double p = v * kSumScale;
  if (p >= 9.2e18) p = 9.2e18;  // clamp below 2^63; still deterministic
  return static_cast<std::uint64_t>(p);
}

}  // namespace

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) noexcept {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

std::vector<double> log_bucket_boundaries(const HistogramSpec& spec) {
  double lo = spec.lo;
  if (!(lo > 0.0) || !std::isfinite(lo)) lo = 1.0;
  double hi = spec.hi;
  if (!(hi > lo) || !std::isfinite(hi)) hi = lo * 2.0;
  int per_octave = spec.per_octave;
  if (per_octave < 1) per_octave = 1;
  std::vector<double> bounds;
  bounds.push_back(lo);
  for (int k = 1; bounds.back() < hi; ++k) {
    if (bounds.size() >= kMaxHistBoundaries) break;
    bounds.push_back(lo * std::pow(2.0, static_cast<double>(k) /
                                            static_cast<double>(per_octave)));
  }
  return bounds;
}

std::size_t bucket_index(const std::vector<double>& bounds,
                         double v) noexcept {
  // First boundary >= v ("le" buckets); everything above the last
  // boundary lands in the overflow bucket at index bounds.size().
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

double HistogramSample::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (!(q > 0.0)) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    const double prev = static_cast<double>(cum);
    cum += counts[k];
    if (static_cast<double>(cum) < target) continue;
    // The target rank lands in bucket k = (bounds[k-1], bounds[k]].
    // Tighten the edges with the recorded extrema (the first/last
    // nonempty buckets only hold values in [min, max]).
    double lo = k == 0 ? min : std::max(bounds[k - 1], min);
    double hi = k < bounds.size() ? std::min(bounds[k], max) : max;
    if (!(hi > lo)) return std::min(std::max(lo, min), max);
    const double frac = (target - prev) / static_cast<double>(counts[k]);
    // Log interpolation matches the log-spaced layout; fall back to
    // linear when an edge is non-positive (negative observations land
    // in bucket 0).
    const double v = lo > 0.0 ? lo * std::pow(hi / lo, frac)
                              : lo + (hi - lo) * frac;
    return std::min(std::max(v, min), max);
  }
  return max;
}

// ---- storage ----

struct Registry::Shard {
  struct Hist {
    std::array<std::atomic<std::uint64_t>, kMaxHistBoundaries + 1> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_lo{0};
    std::atomic<std::uint64_t> sum_hi{0};
    std::atomic<std::uint64_t> min_bits{kPosInfBits};
    std::atomic<std::uint64_t> max_bits{kNegInfBits};
  };
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<Hist, kMaxHistograms> hists;
};

struct Registry::Impl {
  struct CounterInfo {
    std::string name;
    Clock clock = Clock::kDeterministic;
  };
  struct GaugeInfo {
    std::string name;
    Clock clock = Clock::kDeterministic;
  };
  struct HistInfo {
    std::string name;
    Clock clock = Clock::kDeterministic;
    std::vector<double> bounds;
  };

  mutable std::mutex mu;
  std::array<CounterInfo, kMaxCounters> counters;
  std::size_t n_counters = 0;
  std::array<GaugeInfo, kMaxGauges> gauges;
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauge_bits{};
  std::size_t n_gauges = 0;
  std::array<HistInfo, kMaxHistograms> hists;
  std::size_t n_hists = 0;
  /// Shards live for the registry's lifetime; a thread that exits
  /// returns its shard (values intact — they are part of the totals)
  /// to the free list for the next new thread to claim.
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<Shard*> free_shards;
};

/// Thread-local claim on a shard of the global registry. The destructor
/// releases the shard for reuse; its accumulated values stay counted.
/// (Namespace-scope, not anonymous: it is a friend of Registry.)
struct TlsShardRef {
  Registry::Shard* shard = nullptr;
  ~TlsShardRef();
};
namespace {
thread_local TlsShardRef t_shard;
}  // namespace

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: usable from TLS dtors
  return *r;
}

Registry::Shard* Registry::my_shard() noexcept {
  if (t_shard.shard) return t_shard.shard;
  std::lock_guard lock(impl_->mu);
  if (!impl_->free_shards.empty()) {
    t_shard.shard = impl_->free_shards.back();
    impl_->free_shards.pop_back();
  } else {
    impl_->shards.push_back(std::make_unique<Shard>());
    t_shard.shard = impl_->shards.back().get();
  }
  return t_shard.shard;
}

TlsShardRef::~TlsShardRef() {
  if (!shard) return;
  Registry::Impl* impl = Registry::global().impl_;
  std::lock_guard lock(impl->mu);
  impl->free_shards.push_back(shard);
}

CounterId Registry::counter(std::string_view name, Clock clock) {
  std::lock_guard lock(impl_->mu);
  for (std::size_t i = 0; i < impl_->n_counters; ++i)
    if (impl_->counters[i].name == name)
      return CounterId{static_cast<std::uint32_t>(i)};
  if (impl_->n_counters >= kMaxCounters) return CounterId{};
  impl_->counters[impl_->n_counters] = {std::string(name), clock};
  return CounterId{static_cast<std::uint32_t>(impl_->n_counters++)};
}

GaugeId Registry::gauge(std::string_view name, Clock clock) {
  std::lock_guard lock(impl_->mu);
  for (std::size_t i = 0; i < impl_->n_gauges; ++i)
    if (impl_->gauges[i].name == name)
      return GaugeId{static_cast<std::uint32_t>(i)};
  if (impl_->n_gauges >= kMaxGauges) return GaugeId{};
  impl_->gauges[impl_->n_gauges] = {std::string(name), clock};
  impl_->gauge_bits[impl_->n_gauges].store(0, std::memory_order_relaxed);
  return GaugeId{static_cast<std::uint32_t>(impl_->n_gauges++)};
}

HistogramId Registry::histogram(std::string_view name, HistogramSpec spec) {
  std::lock_guard lock(impl_->mu);
  for (std::size_t i = 0; i < impl_->n_hists; ++i)
    if (impl_->hists[i].name == name)
      return HistogramId{static_cast<std::uint32_t>(i)};
  if (impl_->n_hists >= kMaxHistograms) return HistogramId{};
  impl_->hists[impl_->n_hists] = {std::string(name), spec.clock,
                                  log_bucket_boundaries(spec)};
  return HistogramId{static_cast<std::uint32_t>(impl_->n_hists++)};
}

void Registry::add(CounterId id, std::uint64_t n) noexcept {
  if (!id.valid() || id.slot >= kMaxCounters) return;
  // Single-writer slot: plain load+store beats a lock-prefixed RMW, and
  // relaxed atomics keep the cross-thread snapshot reads race-free.
  std::atomic<std::uint64_t>& slot = my_shard()->counters[id.slot];
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

void Registry::set(GaugeId id, double v) noexcept {
  if (!id.valid() || id.slot >= kMaxGauges) return;
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  impl_->gauge_bits[id.slot].store(bits, std::memory_order_relaxed);
}

void Registry::observe(HistogramId id, double v) noexcept {
  if (!id.valid() || id.slot >= kMaxHistograms) return;
  if (std::isnan(v)) return;  // NaN observations are dropped
  // bounds are written once at registration, before the id escapes.
  const std::vector<double>& bounds = impl_->hists[id.slot].bounds;
  Shard::Hist& h = my_shard()->hists[id.slot];
  const std::size_t idx = bucket_index(bounds, v);
  std::atomic<std::uint64_t>& b = h.buckets[idx];
  b.store(b.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  h.count.store(h.count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  const std::uint64_t add = to_fixed(v);
  const std::uint64_t lo = h.sum_lo.load(std::memory_order_relaxed);
  const std::uint64_t nlo = lo + add;
  h.sum_lo.store(nlo, std::memory_order_relaxed);
  if (nlo < lo)
    h.sum_hi.store(h.sum_hi.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  std::uint64_t cur = h.min_bits.load(std::memory_order_relaxed);
  double curd;
  std::memcpy(&curd, &cur, sizeof curd);
  if (v < curd) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h.min_bits.store(bits, std::memory_order_relaxed);
  }
  cur = h.max_bits.load(std::memory_order_relaxed);
  std::memcpy(&curd, &cur, sizeof curd);
  if (v > curd) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h.max_bits.store(bits, std::memory_order_relaxed);
  }
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  std::lock_guard lock(impl_->mu);
  auto all_shards = [&](auto&& f) {
    for (const auto& s : impl_->shards) f(*s);
  };

  out.counters.reserve(impl_->n_counters);
  for (std::size_t i = 0; i < impl_->n_counters; ++i) {
    CounterSample c{impl_->counters[i].name, impl_->counters[i].clock, 0};
    all_shards([&](const Shard& s) {
      c.value += s.counters[i].load(std::memory_order_relaxed);
    });
    out.counters.push_back(std::move(c));
  }

  out.gauges.reserve(impl_->n_gauges);
  for (std::size_t i = 0; i < impl_->n_gauges; ++i) {
    const std::uint64_t bits =
        impl_->gauge_bits[i].load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    out.gauges.push_back({impl_->gauges[i].name, impl_->gauges[i].clock, v});
  }

  out.histograms.reserve(impl_->n_hists);
  for (std::size_t i = 0; i < impl_->n_hists; ++i) {
    const Impl::HistInfo& info = impl_->hists[i];
    HistogramSample h;
    h.name = info.name;
    h.clock = info.clock;
    h.bounds = info.bounds;
    h.counts.assign(info.bounds.size() + 1, 0);
    std::uint64_t sum_lo = 0, sum_hi = 0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    all_shards([&](const Shard& s) {
      const Shard::Hist& sh = s.hists[i];
      for (std::size_t k = 0; k < h.counts.size(); ++k)
        h.counts[k] += sh.buckets[k].load(std::memory_order_relaxed);
      h.count += sh.count.load(std::memory_order_relaxed);
      const std::uint64_t lo = sh.sum_lo.load(std::memory_order_relaxed);
      const std::uint64_t nlo = sum_lo + lo;
      if (nlo < sum_lo) ++sum_hi;
      sum_lo = nlo;
      sum_hi += sh.sum_hi.load(std::memory_order_relaxed);
      std::uint64_t bits = sh.min_bits.load(std::memory_order_relaxed);
      double v;
      std::memcpy(&v, &bits, sizeof v);
      mn = std::min(mn, v);
      bits = sh.max_bits.load(std::memory_order_relaxed);
      std::memcpy(&v, &bits, sizeof v);
      mx = std::max(mx, v);
    });
    h.sum = (static_cast<double>(sum_hi) * 18446744073709551616.0 +
             static_cast<double>(sum_lo)) /
            kSumScale;
    h.min = h.count ? mn : 0.0;
    h.max = h.count ? mx : 0.0;
    out.histograms.push_back(std::move(h));
  }

  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

void Registry::reset() {
  std::lock_guard lock(impl_->mu);
  for (auto& s : impl_->shards) {
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : s->hists) {
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.count.store(0, std::memory_order_relaxed);
      h.sum_lo.store(0, std::memory_order_relaxed);
      h.sum_hi.store(0, std::memory_order_relaxed);
      h.min_bits.store(kPosInfBits, std::memory_order_relaxed);
      h.max_bits.store(kNegInfBits, std::memory_order_relaxed);
    }
  }
  for (std::size_t i = 0; i < impl_->n_gauges; ++i)
    impl_->gauge_bits[i].store(0, std::memory_order_relaxed);
}

std::size_t Registry::counter_count() const {
  std::lock_guard lock(impl_->mu);
  return impl_->n_counters;
}
std::size_t Registry::gauge_count() const {
  std::lock_guard lock(impl_->mu);
  return impl_->n_gauges;
}
std::size_t Registry::histogram_count() const {
  std::lock_guard lock(impl_->mu);
  return impl_->n_hists;
}

// ---- exporters ----

std::string format_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  // Shortest %g rendering that parses back to exactly v. to_chars with
  // chars_format::general and an explicit precision is specified to
  // produce the same characters as printf "%.*g" in the C locale, and
  // rounding v to p+1 significant digits is never farther from v than
  // rounding to p (the p-digit values are a subset of the (p+1)-digit
  // ones under %g's trailing-zero trimming), so round-trip success is
  // monotone in p and the smallest working precision can be found by
  // bisection. This sits on the journal's per-constraint hot path;
  // the old linear scan paid ~17 snprintf+strtod calls for a
  // full-precision double.
  char buf[40];
  std::size_t len = 0;
  const auto roundtrips = [&](int p) {
    const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                   std::chars_format::general, p);
    len = static_cast<std::size_t>(res.ptr - buf);
    double parsed = 0.0;
    std::from_chars(buf, buf + len, parsed);
    return parsed == v;
  };
  int lo = 1, hi = 17;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (roundtrips(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  roundtrips(lo);  // re-render at the winning precision
  return std::string(buf, len);
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = "ageo_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// JSON string escaping is trivial here: metric names are code-chosen
/// identifiers (dots, letters, digits), never arbitrary input.
void append_json_key(std::string& out, const std::string& name) {
  out += '"';
  out += name;
  out += "\":";
}

}  // namespace

std::string Snapshot::to_prometheus(bool include_wall_clock) const {
  std::string out;
  auto keep = [&](Clock c) {
    return include_wall_clock || c == Clock::kDeterministic;
  };
  for (const auto& c : counters) {
    if (!keep(c.clock)) continue;
    const std::string n = prom_name(c.name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : gauges) {
    if (!keep(g.clock)) continue;
    const std::string n = prom_name(g.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + format_double(g.value) + "\n";
  }
  for (const auto& h : histograms) {
    if (!keep(h.clock)) continue;
    const std::string n = prom_name(h.name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t k = 0; k < h.bounds.size(); ++k) {
      cum += h.counts[k];
      out += n + "_bucket{le=\"" + format_double(h.bounds[k]) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += n + "_sum " + format_double(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
    out += "# TYPE " + n + "_min gauge\n";
    out += n + "_min " + format_double(h.min) + "\n";
    out += "# TYPE " + n + "_max gauge\n";
    out += n + "_max " + format_double(h.max) + "\n";
    // Log-interpolated quantile estimates (HistogramSample::quantile):
    // gauges, since Prometheus cannot aggregate them further.
    for (const auto& [suffix, q] : {std::pair{"_p50", 0.5},
                                    std::pair{"_p90", 0.9},
                                    std::pair{"_p99", 0.99}}) {
      out += "# TYPE " + n + suffix + " gauge\n";
      out += n + suffix + " " + format_double(h.quantile(q)) + "\n";
    }
  }
  return out;
}

std::string Snapshot::to_json(bool include_wall_clock) const {
  std::string out = "{";
  auto keep = [&](Clock c) {
    return include_wall_clock || c == Clock::kDeterministic;
  };
  out += "\"counters\":{";
  bool first = true;
  for (const auto& c : counters) {
    if (!keep(c.clock)) continue;
    if (!first) out += ',';
    first = false;
    append_json_key(out, c.name);
    out += std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& g : gauges) {
    if (!keep(g.clock)) continue;
    if (!first) out += ',';
    first = false;
    append_json_key(out, g.name);
    out += format_double(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms) {
    if (!keep(h.clock)) continue;
    if (!first) out += ',';
    first = false;
    append_json_key(out, h.name);
    out += "{\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + format_double(h.sum);
    out += ",\"min\":" + format_double(h.min);
    out += ",\"max\":" + format_double(h.max);
    out += ",\"p50\":" + format_double(h.quantile(0.5));
    out += ",\"p90\":" + format_double(h.quantile(0.9));
    out += ",\"p99\":" + format_double(h.quantile(0.99));
    out += ",\"buckets\":[";
    for (std::size_t k = 0; k < h.counts.size(); ++k) {
      if (k) out += ',';
      out += "{\"le\":";
      out += k < h.bounds.size() ? format_double(h.bounds[k]) : "\"inf\"";
      out += ",\"n\":" + std::to_string(h.counts[k]) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

// ---- environment hookup ----

bool detail::write_export(const std::string& path, std::string_view text,
                          const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  const char* failed = f ? nullptr : "open";
  int err = errno;
  if (f && std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
    failed = "write";
    err = errno;
  }
  // A full disk often shows only here, when the buffered tail is flushed.
  if (f && std::fclose(f) != 0 && !failed) {
    failed = "close";
    err = errno;
  }
  if (failed)
    std::fprintf(stderr, "obs: cannot write %s to %s: %s failed (%s)\n", what,
                 path.c_str(), failed, std::strerror(err));
  return !failed;
}

namespace {

struct MetricsEnv {
  std::string export_path;

  MetricsEnv() {
    const char* e = std::getenv("AGEO_METRICS");
    if (!e || !*e || std::string_view(e) == "0") return;
    set_metrics_enabled(true);
    const std::string_view v(e);
    if (v != "1" && v != "on") export_path = std::string(v);
  }

  // The export runs in the destructor, not an atexit callback: a callback
  // registered inside the constructor outlives the object (reverse
  // registration order), so it would read export_path after destruction.
  // The registry itself is a leaked singleton and is still valid here.
  ~MetricsEnv() {
    if (export_path.empty()) return;
    const std::string text = Registry::global().snapshot().to_prometheus();
    if (export_path == "-" || export_path == "stdout") {
      std::fwrite(text.data(), 1, text.size(), stdout);
      return;
    }
    detail::write_export(export_path, text, "metrics snapshot");
  }
};

MetricsEnv g_metrics_env;

}  // namespace

}  // namespace ageo::obs
