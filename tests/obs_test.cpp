// Telemetry subsystem tests: histogram bucket math, registry sharding
// and merge determinism (threads=1 vs threads=8 snapshots byte-equal),
// concurrent-increment stress (TSan), exporters, and trace spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

using namespace ageo;
using obs::Registry;

namespace {

/// Enable metrics for one test, restore the prior state after.
struct MetricsOn {
  bool prev = obs::metrics_enabled();
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(prev); }
};

const obs::HistogramSample* find_hist(const obs::Snapshot& snap,
                                      const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

const obs::CounterSample* find_counter(const obs::Snapshot& snap,
                                       const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return &c;
  return nullptr;
}

}  // namespace

// ---- bucket layout ----

TEST(ObsHistogram, PowerOfTwoBoundaries) {
  auto b = obs::log_bucket_boundaries({1.0, 16.0, 1});
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 4.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
  EXPECT_DOUBLE_EQ(b[4], 16.0);
}

TEST(ObsHistogram, PerOctaveSubdivision) {
  auto b = obs::log_bucket_boundaries({1.0, 4.0, 4});
  // 1 * 2^(k/4) until >= 4: k = 0..8.
  ASSERT_EQ(b.size(), 9u);
  for (std::size_t k = 0; k < b.size(); ++k)
    EXPECT_DOUBLE_EQ(b[k], std::pow(2.0, static_cast<double>(k) / 4.0));
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
  EXPECT_GE(b.back(), 4.0);
}

TEST(ObsHistogram, DegenerateSpecsAreClamped) {
  EXPECT_FALSE(obs::log_bucket_boundaries({-3.0, 0.0, 0}).empty());
  EXPECT_FALSE(obs::log_bucket_boundaries({5.0, 1.0, 4}).empty());
  // Huge range: capped at kMaxHistBoundaries, never unbounded.
  auto b = obs::log_bucket_boundaries({1e-6, 1e30, 8});
  EXPECT_LE(b.size(), obs::kMaxHistBoundaries);
}

TEST(ObsHistogram, BucketIndexLeSemantics) {
  const std::vector<double> b{1.0, 2.0, 4.0};
  EXPECT_EQ(obs::bucket_index(b, 0.5), 0u);
  EXPECT_EQ(obs::bucket_index(b, 1.0), 0u);  // on-boundary: le bucket
  EXPECT_EQ(obs::bucket_index(b, 1.5), 1u);
  EXPECT_EQ(obs::bucket_index(b, 2.0), 1u);
  EXPECT_EQ(obs::bucket_index(b, 3.9), 2u);
  EXPECT_EQ(obs::bucket_index(b, 4.0), 2u);
  EXPECT_EQ(obs::bucket_index(b, 4.1), 3u);  // overflow bucket
  EXPECT_EQ(obs::bucket_index(b, 1e300), 3u);
}

// ---- registry basics ----

TEST(ObsRegistry, RegisterIsIdempotent) {
  auto a = Registry::global().counter("obs_test.idem");
  auto b = Registry::global().counter("obs_test.idem");
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(a.slot, b.slot);
  auto h1 = Registry::global().histogram("obs_test.idem_h", {1.0, 8.0, 1});
  auto h2 = Registry::global().histogram("obs_test.idem_h", {2.0, 99.0, 3});
  EXPECT_EQ(h1.slot, h2.slot);  // first registration fixes the spec
}

TEST(ObsRegistry, CounterGaugeHistogramRoundTrip) {
  MetricsOn on;
  Registry& reg = Registry::global();
  auto c = reg.counter("obs_test.rt_counter");
  auto g = reg.gauge("obs_test.rt_gauge");
  auto h = reg.histogram("obs_test.rt_hist", {1.0, 64.0, 1});
  reg.add(c, 3);
  reg.add(c);
  reg.set(g, 2.5);
  reg.observe(h, 0.5);
  reg.observe(h, 3.0);
  reg.observe(h, 1e9);  // overflow bucket
  reg.observe(h, std::nan(""));  // dropped

  auto snap = reg.snapshot();
  const auto* cs = find_counter(snap, "obs_test.rt_counter");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->value, 4u);
  const auto* hs = find_hist(snap, "obs_test.rt_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 3u);
  EXPECT_DOUBLE_EQ(hs->min, 0.5);
  EXPECT_DOUBLE_EQ(hs->max, 1e9);
  EXPECT_NEAR(hs->sum, 0.5 + 3.0 + 1e9, 1.0);
  EXPECT_EQ(hs->counts.front(), 1u);  // 0.5 in the <= 1 bucket
  EXPECT_EQ(hs->counts.back(), 1u);   // 1e9 in the overflow bucket
  std::uint64_t total = 0;
  for (auto n : hs->counts) total += n;
  EXPECT_EQ(total, hs->count);
}

TEST(ObsRegistry, InvalidIdsAreNoOps) {
  MetricsOn on;
  Registry& reg = Registry::global();
  reg.add(obs::CounterId{}, 7);
  reg.set(obs::GaugeId{}, 1.0);
  reg.observe(obs::HistogramId{}, 1.0);  // must not crash
}

TEST(ObsRegistry, DisabledMacrosRecordNothing) {
  obs::set_metrics_enabled(false);
  AGEO_COUNT("obs_test.disabled_counter");
  AGEO_HIST("obs_test.disabled_hist", 5.0, 1.0, 64.0);
  auto snap = Registry::global().snapshot();
  // The sites were never registered: disabled means no lookup at all.
  EXPECT_EQ(find_counter(snap, "obs_test.disabled_counter"), nullptr);
  EXPECT_EQ(find_hist(snap, "obs_test.disabled_hist"), nullptr);
}

// ---- merge determinism ----

namespace {

/// The shared workload: a fixed per-item schedule of counter adds and
/// histogram observations, everything derived from the item index.
void run_workload(int threads) {
  Registry& reg = Registry::global();
  auto c = reg.counter("obs_test.det_counter");
  auto h = reg.histogram("obs_test.det_hist", {0.5, 4096.0, 4});
  parallel_for(512, threads, [&](std::size_t i) {
    reg.add(c, i % 7);
    reg.observe(h, 0.25 * static_cast<double>((i * 37) % 9973));
    AGEO_COUNT("obs_test.det_macro");
  });
}

}  // namespace

TEST(ObsRegistry, ThreadShardMergeIsDeterministic) {
  MetricsOn on;
  Registry& reg = Registry::global();

  reg.reset();
  run_workload(1);
  const auto serial = reg.snapshot();
  const std::string serial_prom = serial.to_prometheus(false);
  const std::string serial_json = serial.to_json(false);

  reg.reset();
  run_workload(8);
  const auto parallel = reg.snapshot();

  // Byte-identical deterministic views: the acceptance criterion.
  EXPECT_EQ(serial_prom, parallel.to_prometheus(false));
  EXPECT_EQ(serial_json, parallel.to_json(false));

  const auto* hs = find_hist(parallel, "obs_test.det_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 512u);
#if AGEO_OBS_ENABLED
  const auto* cs = find_counter(parallel, "obs_test.det_macro");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->value, 512u);
#else
  // Macros compile to nothing under -DAGEO_OBS=OFF: never registered.
  EXPECT_EQ(find_counter(parallel, "obs_test.det_macro"), nullptr);
#endif
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  MetricsOn on;
  Registry& reg = Registry::global();
  auto c = reg.counter("obs_test.reset_counter");
  reg.add(c, 11);
  reg.reset();
  auto c2 = reg.counter("obs_test.reset_counter");
  EXPECT_EQ(c.slot, c2.slot);  // cached ids survive reset
  reg.add(c, 2);
  const auto snap = reg.snapshot();
  const auto* cs = find_counter(snap, "obs_test.reset_counter");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->value, 2u);
}

// ---- concurrency stress (meaningful under TSan) ----

TEST(ObsRegistry, ConcurrentIncrementStress) {
  MetricsOn on;
  Registry& reg = Registry::global();
  reg.reset();
  auto c = reg.counter("obs_test.stress_counter");
  auto h = reg.histogram("obs_test.stress_hist", {1.0, 1024.0, 2});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          reg.add(c);
          reg.observe(h, static_cast<double>((t * 131 + i) % 2048));
          if (i % 4096 == 0) (void)reg.snapshot();  // reader vs writers
        }
      });
    }
  }
  auto snap = reg.snapshot();
  const auto* cs = find_counter(snap, "obs_test.stress_counter");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->value,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto* hs = find_hist(snap, "obs_test.stress_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---- exporters ----

TEST(ObsExport, PrometheusTextShape) {
  MetricsOn on;
  Registry& reg = Registry::global();
  reg.reset();
  reg.add(reg.counter("obs_test.prom_counter"), 5);
  reg.observe(reg.histogram("obs_test.prom_hist", {1.0, 8.0, 1}), 3.0);
  const std::string text = reg.snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE ageo_obs_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("ageo_obs_test_prom_counter 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ageo_obs_test_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ageo_obs_test_prom_hist_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ageo_obs_test_prom_hist_count 1"), std::string::npos);
}

TEST(ObsExport, WallClockFilterDropsTimerMetrics) {
  MetricsOn on;
  Registry& reg = Registry::global();
  reg.add(reg.counter("obs_test.wall_counter", obs::Clock::kWallClock), 1);
  reg.add(reg.counter("obs_test.det_counter2"), 1);
  const auto snap = reg.snapshot();
  const std::string all = snap.to_prometheus(true);
  const std::string det = snap.to_prometheus(false);
  EXPECT_NE(all.find("wall_counter"), std::string::npos);
  EXPECT_EQ(det.find("wall_counter"), std::string::npos);
  EXPECT_NE(det.find("det_counter2"), std::string::npos);
  const std::string det_json = snap.to_json(false);
  EXPECT_EQ(det_json.find("wall_counter"), std::string::npos);
}

TEST(ObsExport, JsonIsBalanced) {
  MetricsOn on;
  Registry& reg = Registry::global();
  reg.observe(reg.histogram("obs_test.json_hist", {1.0, 16.0, 2}), 5.0);
  const std::string json = reg.snapshot().to_json();
  long braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (ch == '{') - (ch == '}');
    brackets += (ch == '[') - (ch == ']');
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(ObsExport, WriteExportReportsAFailedOpen) {
  namespace fs = std::filesystem;
  const std::string text = "ageo_obs_test_export 1\n";
  // A path in a missing directory fails at open, with the path named.
  const fs::path missing =
      fs::temp_directory_path() / "ageo_obs_test_no_such_dir" / "out.prom";
  testing::internal::CaptureStderr();
  EXPECT_FALSE(obs::detail::write_export(missing.string(), text,
                                         "metrics snapshot"));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("obs: cannot write metrics snapshot to " +
                     missing.string() + ": open failed"),
            std::string::npos)
      << err;

  // A writable path gets the whole text and no message.
  const fs::path ok = fs::temp_directory_path() / "ageo_obs_test_export.prom";
  testing::internal::CaptureStderr();
  EXPECT_TRUE(obs::detail::write_export(ok.string(), text, "trace"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(fs::file_size(ok), text.size());
  fs::remove(ok);
}

TEST(ObsExport, WriteExportReportsAFullDiskAtClose) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this system";
  // /dev/full accepts the open and the buffered write; the full disk
  // shows only when fclose flushes the tail.
  testing::internal::CaptureStderr();
  EXPECT_FALSE(obs::detail::write_export("/dev/full", "x\n", "journal"));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("obs: cannot write journal to /dev/full: close failed"),
            std::string::npos)
      << err;
}

TEST(ObsExport, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -2.5, 0.1, 1e-9, 1e17, 3.141592653589793,
                   0.30000000000000004}) {
    const std::string s = obs::format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(obs::format_double(
                std::numeric_limits<double>::infinity()),
            "+Inf");
}

TEST(ObsExport, ScopedTimerObserves) {
  MetricsOn on;
  Registry& reg = Registry::global();
  auto h = reg.histogram("obs_test.timer_hist",
                         {1.0, 1e9, 4, obs::Clock::kWallClock});
  const auto before = find_hist(reg.snapshot(), "obs_test.timer_hist")->count;
  { obs::ScopedTimer t(h); }
  { AGEO_TIMED_NS("obs_test.timer_hist2", 1.0, 1e9); }
  const auto snap = reg.snapshot();
  const auto* hs = find_hist(snap, "obs_test.timer_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, before + 1);
  EXPECT_GE(hs->max, 0.0);
#if AGEO_OBS_ENABLED
  const auto* hs2 = find_hist(snap, "obs_test.timer_hist2");
  ASSERT_NE(hs2, nullptr);
  EXPECT_EQ(hs2->count, 1u);
  EXPECT_EQ(hs2->clock, obs::Clock::kWallClock);
#else
  EXPECT_EQ(find_hist(snap, "obs_test.timer_hist2"), nullptr);
#endif
}

// ---- trace spans ----

TEST(ObsTrace, SpansRecordAndExport) {
  obs::reset_trace();
  obs::set_tracing_enabled(true);
  {
    // Direct Span objects: the recording machinery is runtime-gated and
    // must work in the AGEO_OBS=OFF build too (only the macros vanish).
    obs::Span outer("test", "outer");
    obs::Span inner("test", "inner");
  }
  obs::set_tracing_enabled(false);
  auto dump = obs::collect_trace();
  ASSERT_GE(dump.events.size(), 2u);
  bool saw_outer = false, saw_inner = false;
  for (const auto& e : dump.events) {
    if (std::string_view(e.name) == "outer") saw_outer = true;
    if (std::string_view(e.name) == "inner") saw_inner = true;
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(std::is_sorted(
      dump.events.begin(), dump.events.end(),
      [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
        return a.start_ns < b.start_ns;
      }));

  const std::string chrome = obs::trace_to_chrome_json(dump);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"outer\""), std::string::npos);

  const std::string jsonl = obs::trace_to_jsonl(dump);
  const auto lines =
      static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n'));
  // One line per event plus the dropped_events trailer.
  EXPECT_EQ(lines, dump.events.size() + 1);
  EXPECT_NE(jsonl.find("{\"dropped_events\":0}"), std::string::npos);
}

TEST(ObsTrace, DisabledSpansCostNothingAndRecordNothing) {
  obs::reset_trace();
  obs::set_tracing_enabled(false);
  {
    AGEO_SPAN("test", "ghost");
  }
  EXPECT_TRUE(obs::collect_trace().events.empty());
}

TEST(ObsTrace, MultiThreadedSpansAllRecorded) {
  obs::reset_trace();
  obs::set_tracing_enabled(true);
  parallel_for(64, 4,
               [&](std::size_t) { obs::Span span("test", "worker"); });
  obs::set_tracing_enabled(false);
  auto dump = obs::collect_trace();
  // parallel_for records its own pool-worker spans; count only ours.
  std::size_t mine = 0;
  for (const auto& e : dump.events)
    if (std::string_view(e.cat) == "test" &&
        std::string_view(e.name) == "worker")
      ++mine;
  EXPECT_EQ(mine, 64u);
  EXPECT_EQ(dump.dropped, 0u);
}

TEST(ObsTrace, StageSpansSurviveRingWraparound) {
  obs::reset_trace();
  obs::set_tracing_enabled(true);
  { obs::Span stage("test", "stage", obs::SpanStore::kStage); }
  // One more than the per-thread ring holds (16,384), plus 100: the
  // ring drops its 100 oldest events, none of which is the stage span.
  constexpr int kFiller = (1 << 14) + 100;
  for (int i = 0; i < kFiller; ++i) obs::Span span("test", "filler");
  auto dump = obs::collect_trace();
  EXPECT_EQ(dump.dropped, 100u);
  const auto count = [](const obs::TraceDump& d, std::string_view name) {
    return std::count_if(d.events.begin(), d.events.end(),
                         [&](const obs::TraceEvent& e) {
                           return std::string_view(e.name) == name;
                         });
  };
  EXPECT_EQ(count(dump, "stage"), 1);
  EXPECT_EQ(count(dump, "filler"), 1 << 14);

  // The stage store never wraps: past its capacity it keeps its first
  // events and counts the rest as dropped.
  obs::reset_trace();
  for (std::size_t i = 0; i < obs::kStageCapacity + 5; ++i)
    obs::Span stage("test", "stage", obs::SpanStore::kStage);
  obs::set_tracing_enabled(false);
  dump = obs::collect_trace();
  EXPECT_EQ(dump.dropped, 5u);
  EXPECT_EQ(count(dump, "stage"),
            static_cast<std::ptrdiff_t>(obs::kStageCapacity));
  obs::reset_trace();
  EXPECT_TRUE(obs::collect_trace().events.empty());
}

// ---- histogram quantiles ----

TEST(ObsQuantile, EmptyAndExtremeQuantiles) {
  MetricsOn on;
  Registry& reg = Registry::global();
  const auto id = reg.histogram("obs_test.q_empty", {1.0, 1024.0, 1});
  auto snap = reg.snapshot();
  const obs::HistogramSample* h = find_hist(snap, "obs_test.q_empty");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->quantile(0.5), 0.0);  // no samples
  reg.observe(id, 3.0);
  reg.observe(id, 700.0);
  snap = reg.snapshot();
  h = find_hist(snap, "obs_test.q_empty");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->quantile(0.0), 3.0);    // q<=0 -> recorded min
  EXPECT_DOUBLE_EQ(h->quantile(-1.0), 3.0);
  EXPECT_DOUBLE_EQ(h->quantile(1.0), 700.0);  // q>=1 -> recorded max
  EXPECT_DOUBLE_EQ(h->quantile(2.0), 700.0);
}

TEST(ObsQuantile, MonotoneAndWithinRecordedRange) {
  MetricsOn on;
  Registry& reg = Registry::global();
  const auto id = reg.histogram("obs_test.q_mono", {1.0, 4096.0, 2});
  for (int i = 1; i <= 200; ++i) reg.observe(id, static_cast<double>(i));
  const auto snap = reg.snapshot();
  const obs::HistogramSample* h = find_hist(snap, "obs_test.q_mono");
  ASSERT_NE(h, nullptr);
  double prev = 0.0;
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double v = h->quantile(q);
    EXPECT_GE(v, h->min);
    EXPECT_LE(v, h->max);
    EXPECT_GE(v, prev) << "quantiles must be monotone in q";
    prev = v;
  }
  // Log-bucket interpolation is approximate but should land within one
  // octave of the true empirical quantile for a uniform fill.
  EXPECT_NEAR(h->quantile(0.5), 100.0, 64.0);
  EXPECT_NEAR(h->quantile(0.99), 198.0, 64.0);
}

TEST(ObsQuantile, SingleValueCollapses) {
  MetricsOn on;
  Registry& reg = Registry::global();
  const auto id = reg.histogram("obs_test.q_single", {1.0, 1024.0, 1});
  for (int i = 0; i < 32; ++i) reg.observe(id, 42.0);
  const auto snap = reg.snapshot();
  const obs::HistogramSample* h = find_hist(snap, "obs_test.q_single");
  ASSERT_NE(h, nullptr);
  // min == max == 42 clamps every quantile to the point mass.
  for (double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(h->quantile(q), 42.0);
}

TEST(ObsQuantile, ExportersCarryQuantileGauges) {
  MetricsOn on;
  Registry& reg = Registry::global();
  reg.reset();
  const auto id = reg.histogram("obs_test.q_export", {1.0, 64.0, 1});
  for (int i = 1; i <= 10; ++i) reg.observe(id, static_cast<double>(i));
  const auto snap = reg.snapshot();
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("# TYPE ageo_obs_test_q_export_p50 gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("ageo_obs_test_q_export_p90 "), std::string::npos);
  EXPECT_NE(prom.find("ageo_obs_test_q_export_p99 "), std::string::npos);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// ---- verdict provenance journal ----

namespace {
/// Enable journaling for one test, restore the prior state after.
struct JournalOn {
  bool prev = obs::journal_enabled();
  JournalOn() {
    obs::reset_journal();
    obs::set_journal_enabled(true);
  }
  ~JournalOn() {
    obs::set_journal_enabled(prev);
    obs::reset_journal();
  }
};
}  // namespace

TEST(ObsJournal, EmitCollectAndMergeSort) {
  JournalOn on;
  // Out-of-order proxies; the collector must sort by (proxy, seq) with
  // the run sentinel last.
  obs::Event(obs::kRunEvent, 0, obs::Scope::kVerdict, "summary")
      .num("proxies", 2)
      .emit();
  obs::Event(1, 0, obs::Scope::kVerdict, "campaign").num("ok", 7).emit();
  obs::Event(0, 1, obs::Scope::kSchedule, "refine").flag("refined", true).emit();
  obs::Event(0, 0, obs::Scope::kVerdict, "lcs").num("total", 3).emit();
  const auto dump = obs::collect_journal();
  ASSERT_EQ(dump.events.size(), 4u);
  EXPECT_EQ(dump.dropped, 0u);
  EXPECT_EQ(dump.events[0].proxy, 0u);
  EXPECT_EQ(dump.events[0].kind, "lcs");
  EXPECT_EQ(dump.events[1].kind, "refine");
  EXPECT_EQ(dump.events[2].proxy, 1u);
  EXPECT_EQ(dump.events[3].proxy, obs::kRunEvent);
}

TEST(ObsJournal, ScopeCappedViewsAndRunSentinel) {
  JournalOn on;
  obs::Event(0, 0, obs::Scope::kVerdict, "lcs").num("total", 5).emit();
  obs::Event(0, 1, obs::Scope::kSchedule, "refine").num("levels", 2).emit();
  obs::Event(0, 2, obs::Scope::kWall, "latency").real("us", 12.5).emit();
  obs::Event(obs::kRunEvent, 0, obs::Scope::kVerdict, "summary").emit();
  const auto dump = obs::collect_journal();
  const std::string all = obs::journal_to_jsonl(dump);
  const std::string sched =
      obs::journal_to_jsonl(dump, obs::Scope::kSchedule);
  const std::string verdict =
      obs::journal_to_jsonl(dump, obs::Scope::kVerdict);
  auto lines = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '\n');
  };
  EXPECT_EQ(lines(all), 4);
  EXPECT_EQ(lines(sched), 3);
  EXPECT_EQ(lines(verdict), 2);
  EXPECT_EQ(verdict.find("latency"), std::string::npos);
  EXPECT_EQ(verdict.find("refine"), std::string::npos);
  EXPECT_NE(all.find("\"proxy\":\"run\""), std::string::npos);
  // A capped view is a strict prefix-filter of the full one: every
  // kVerdict line appears verbatim in both.
  EXPECT_NE(all.find(verdict.substr(0, verdict.find('\n'))),
            std::string::npos);
}

TEST(ObsJournal, JsonlParseRoundTrip) {
  JournalOn on;
  obs::Event(3, 0, obs::Scope::kVerdict, "constraint")
      .num("idx", 0)
      .num("landmark", 12)
      .real("delay_ms", 17.25)
      .flag("used", true)
      .text("note", "quote \" backslash \\ tab \t")
      .emit();
  obs::Event(obs::kRunEvent, 0, obs::Scope::kVerdict, "summary")
      .num("proxies", 1)
      .emit();
  const auto dump = obs::collect_journal();
  const std::string jsonl = obs::journal_to_jsonl(dump);
  const auto parsed = obs::parse_journal_jsonl(jsonl);
  ASSERT_EQ(parsed.events.size(), dump.events.size());
  // Round trip: re-serializing the parsed dump is byte-identical.
  EXPECT_EQ(obs::journal_to_jsonl(parsed), jsonl);
  const auto& ev = parsed.events[0];
  EXPECT_EQ(ev.proxy, 3u);
  EXPECT_EQ(ev.kind, "constraint");
  ASSERT_TRUE(obs::journal_field(ev, "landmark").has_value());
  EXPECT_EQ(*obs::journal_field(ev, "landmark"), "12");
  EXPECT_EQ(*obs::journal_field(ev, "delay_ms"), "17.25");
  EXPECT_EQ(*obs::journal_field(ev, "used"), "true");
  EXPECT_EQ(*obs::journal_field(ev, "note"),
            "quote \" backslash \\ tab \t");
  EXPECT_FALSE(obs::journal_field(ev, "absent").has_value());
  EXPECT_EQ(parsed.events[1].proxy, obs::kRunEvent);
}

TEST(ObsJournal, ParseSkipsOverflowingProxyIds) {
  // Hostile ids: one past UINT64_MAX (would wrap to proxy 0), the run
  // sentinel spelled as a number, and a far longer digit run. Each line
  // is dropped; the honest lines around them parse unchanged.
  const std::string jsonl =
      "{\"proxy\":0,\"kind\":\"constraint\",\"scope\":\"verdict\","
      "\"idx\":0}\n"
      "{\"proxy\":18446744073709551616,\"kind\":\"constraint\","
      "\"scope\":\"verdict\",\"idx\":1}\n"
      "{\"proxy\":18446744073709551615,\"kind\":\"constraint\","
      "\"scope\":\"verdict\",\"idx\":2}\n"
      "{\"proxy\":999999999999999999999999999999,\"kind\":\"constraint\","
      "\"scope\":\"verdict\",\"idx\":3}\n"
      "{\"proxy\":18446744073709551614,\"kind\":\"constraint\","
      "\"scope\":\"verdict\",\"idx\":4}\n"
      "{\"proxy\":\"run\",\"kind\":\"summary\",\"scope\":\"verdict\","
      "\"proxies\":1}\n";
  const auto parsed = obs::parse_journal_jsonl(jsonl);
  ASSERT_EQ(parsed.events.size(), 3u);
  EXPECT_EQ(parsed.events[0].proxy, 0u);
  EXPECT_EQ(*obs::journal_field(parsed.events[0], "idx"), "0");
  EXPECT_EQ(parsed.events[1].proxy, 18446744073709551614ull);
  EXPECT_EQ(*obs::journal_field(parsed.events[1], "idx"), "4");
  EXPECT_EQ(parsed.events[2].proxy, obs::kRunEvent);
  EXPECT_EQ(parsed.events[2].kind, "summary");
}

TEST(ObsJournal, ParseRejectsMalformedUnicodeEscape) {
  // A \u escape needs exactly four hex digits: non-hex digits, a short
  // run cut off by the closing quote, and a run truncated at the end of
  // the value all make the line malformed, in the kind or in a field. So
  // does an escape letter the writer never uses.
  const std::string jsonl =
      "{\"proxy\":0,\"kind\":\"constraint\",\"scope\":\"verdict\","
      "\"idx\":0}\n"
      "{\"proxy\":1,\"kind\":\"bad\\uZZZZ\",\"scope\":\"verdict\","
      "\"idx\":1}\n"
      "{\"proxy\":2,\"kind\":\"constraint\",\"scope\":\"verdict\","
      "\"note\":\"x\\u12\"}\n"
      "{\"proxy\":3,\"kind\":\"constraint\",\"scope\":\"verdict\","
      "\"note\":\"x\\u00g1\"}\n"
      "{\"proxy\":4,\"kind\":\"constraint\",\"scope\":\"verdict\","
      "\"note\":\"x\\q\"}\n"
      "{\"proxy\":5,\"kind\":\"constraint\",\"scope\":\"verdict\","
      "\"note\":\"A\\u0041\\u001f\"}\n";
  const auto parsed = obs::parse_journal_jsonl(jsonl);
  ASSERT_EQ(parsed.events.size(), 2u);
  EXPECT_EQ(parsed.events[0].proxy, 0u);
  EXPECT_EQ(parsed.events[1].proxy, 5u);
  EXPECT_EQ(*obs::journal_field(parsed.events[1], "note"), "AA\x1f");

  // journal_field on an event built by hand (not through the parser)
  // refuses the same escapes.
  obs::JournalEvent ev;
  for (const char* fields :
       {"\"note\":\"x\\uZZZZ\"", "\"note\":\"x\\u12\"",
        "\"note\":\"x\\u12", "\"note\":\"x\\u00e9\""}) {
    ev.fields = fields;
    EXPECT_FALSE(obs::journal_field(ev, "note").has_value()) << fields;
  }
}

TEST(ObsJournal, EscapedControlCharactersRoundTrip) {
  // Every byte the writer escapes — the quote, the backslash and all 32
  // control characters — reads back byte-equal.
  std::string text;
  for (int c = 0; c < 0x20; ++c) text += static_cast<char>(c);
  text += "\"\\ plain";
  std::string jsonl;
  {
    JournalOn on;
    obs::Event(7, 0, obs::Scope::kVerdict, "probe").text("text", text).emit();
    jsonl = obs::journal_to_jsonl(obs::collect_journal());
  }
  const auto parsed = obs::parse_journal_jsonl(jsonl);
  ASSERT_EQ(parsed.events.size(), 1u);
  const std::optional<std::string> back =
      obs::journal_field(parsed.events[0], "text");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, text);
}

TEST(ObsJournal, DisabledEmitsNothing) {
  obs::reset_journal();
  obs::set_journal_enabled(false);
  obs::Event(0, 0, obs::Scope::kVerdict, "ghost").num("x", 1).emit();
  EXPECT_TRUE(obs::collect_journal().events.empty());
}

TEST(ObsJournal, MultiThreadedMergeMatchesSerial) {
  auto run = [](int threads) {
    JournalOn on;
    parallel_for(32, threads, [&](std::size_t i) {
      obs::Event(i, 0, obs::Scope::kVerdict, "campaign").num("i", i).emit();
      obs::Event(i, 1, obs::Scope::kVerdict, "lcs").num("total", i * 2).emit();
    });
    return obs::journal_to_jsonl(obs::collect_journal());
  };
  const std::string serial = run(1);
  const std::string parallel = run(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}
