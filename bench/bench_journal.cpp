// Provenance-journal overhead on the headline audit.
//
// The journal promises the same contract as metrics and tracing: one
// relaxed load + branch per site when the runtime switch is off, and
// bounded, allocation-amortized cost when it is on. This bench measures
// both sides on the standard §6 audit:
//
//   ms_per_proxy_min_off — journaling disabled (the default path every
//     production audit pays; CI gates this against the AGEO_OBS=OFF
//     binary at <= 2% + noise epsilon, same as the obs-overhead job)
//   ms_per_proxy_min_on  — journaling enabled, full provenance recorded
//
// plus the volume story for the enabled run: event count by kind,
// ring-wraparound drops (must be 0 for byte-deterministic dumps), and
// serialized JSONL size. AGEO_SCALE shrinks the workload,
// AGEO_BENCH_REPEAT=N reruns each mode and keeps the minimum,
// AGEO_BENCH_JSON_JOURNAL=FILE records everything as BENCH_journal.json.
//
// Under -DAGEO_OBS=OFF both modes run the same compiled-out path (the
// "on" run journals nothing); CI only reads the _off row from that
// binary.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

using namespace ageo;

namespace {

struct ModeResult {
  double audit_ms_min = 0.0;
  std::size_t proxies = 0;
  double ms_per_proxy() const {
    return proxies ? audit_ms_min / static_cast<double>(proxies) : 0.0;
  }
};

ModeResult run_mode(double scale, int repeat, bool journal_on) {
  ModeResult res;
  for (int i = 0; i < repeat; ++i) {
    if (journal_on) {
      obs::reset_journal();  // fresh rings: a repeat must not inherit
      obs::set_journal_enabled(true);
    } else {
      obs::set_journal_enabled(false);
    }
    auto bundle = bench::run_standard_audit(scale);
    obs::set_journal_enabled(false);
    res.proxies = bundle.report.rows.size();
    res.audit_ms_min = i == 0 ? bundle.audit_ms
                              : std::min(res.audit_ms_min, bundle.audit_ms);
  }
  return res;
}

}  // namespace

int main() {
  // Same pin as the headline bench: the overhead comparison needs the
  // metrics switch in a known state on both binaries.
  if (const char* f = std::getenv("AGEO_OBS_FORCE")) {
    if (!std::strcmp(f, "on")) obs::set_metrics_enabled(true);
    if (!std::strcmp(f, "off")) obs::set_metrics_enabled(false);
  }
  const int repeat = bench::repeat_from_env();
  const double scale = bench::scale_from_env();

  std::printf("algorithm: %s\n",
              assess::to_string(bench::algorithm_from_env()));
  std::printf("scale: %.3f, repeat: %d\n", scale, repeat);

  // Off first: the gated number must not be warmed by journal
  // allocations, and the on-run's dump is collected after its last
  // repeat so the volume stats match the timed run.
  obs::reset_journal();
  const ModeResult off = run_mode(scale, repeat, /*journal_on=*/false);
  const ModeResult on = run_mode(scale, repeat, /*journal_on=*/true);
  const obs::JournalDump dump = obs::collect_journal();
  const std::string jsonl = obs::journal_to_jsonl(dump);

  std::map<std::string, std::uint64_t> by_kind;
  for (const auto& ev : dump.events) ++by_kind[ev.kind];

  std::printf("ms_per_proxy_min_off: %.4f\n", off.ms_per_proxy());
  std::printf("ms_per_proxy_min_on: %.4f\n", on.ms_per_proxy());
  const double overhead_pct =
      off.ms_per_proxy() > 0.0
          ? 100.0 * (on.ms_per_proxy() / off.ms_per_proxy() - 1.0)
          : 0.0;
  std::printf("journal_overhead_pct: %.2f\n", overhead_pct);
  std::printf("journal_events: %zu (dropped %llu, jsonl %zu bytes)\n",
              dump.events.size(),
              static_cast<unsigned long long>(dump.dropped), jsonl.size());
  for (const auto& [kind, count] : by_kind) {
    std::printf("  %-12s %llu\n", kind.c_str(),
                static_cast<unsigned long long>(count));
  }

  // Deterministic dumps require no ring wraparound; a drop here means
  // the ring capacity no longer fits the standard audit at this scale.
  if (dump.dropped != 0) {
    std::fprintf(stderr, "FAIL: journal dropped %llu events\n",
                 static_cast<unsigned long long>(dump.dropped));
    return 1;
  }

  if (const char* path = std::getenv("AGEO_BENCH_JSON_JOURNAL")) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    out << "{\n  \"scale\": " << scale << ",\n  \"repeat\": " << repeat
        << ",\n  \"algorithm\": \""
        << assess::to_string(bench::algorithm_from_env())
        << "\",\n  \"proxies\": " << on.proxies
        << ",\n  \"ms_per_proxy_min_off\": " << off.ms_per_proxy()
        << ",\n  \"ms_per_proxy_min_on\": " << on.ms_per_proxy()
        << ",\n  \"overhead_pct\": " << overhead_pct
        << ",\n  \"events\": " << dump.events.size()
        << ",\n  \"dropped\": " << dump.dropped
        << ",\n  \"jsonl_bytes\": " << jsonl.size()
        << ",\n  \"events_by_kind\": {";
    bool first = true;
    for (const auto& [kind, count] : by_kind) {
      out << (first ? "" : ", ") << "\"" << kind << "\": " << count;
      first = false;
    }
    out << "}\n}\n";
    std::fprintf(stderr, "wrote %s\n", path);
  }
  return 0;
}
