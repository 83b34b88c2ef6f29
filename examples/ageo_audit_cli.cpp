// ageo_audit_cli: the full audit as a command-line tool.
//
//   ageo_audit_cli [--scale F] [--seed N] [--grid DEG]
//                  [--refine SCHED] [--threads N] [--algo NAME]
//                  [--serve] [--rounds N]
//                  [--json FILE] [--ground-truth] [--metrics FILE|-]
//                  [--trace FILE] [--journal FILE] [--explain N]
//                  [--attackers FRAC] [--attack STRATEGY]
//
// Runs the seven-provider audit and prints the per-provider summary;
// optionally writes the complete per-proxy results as JSON, the
// telemetry snapshot as Prometheus text (--metrics), a Chrome
// trace_event profile of the run (--trace), the verdict provenance
// journal as JSONL (--journal), and a per-proxy decision narrative
// rendered from that journal (--explain, repeatable).
//
// --serve swaps the one-shot batch Auditor for the always-on
// serve::AuditService: the same fleet is admitted into its pool,
// bootstrapped, then streamed through --rounds re-audit rounds
// of incremental memoised localization before the report is rendered.
//
// The flags fill one assess::AuditConfig (or serve::ServiceConfig), whose
// validate() refuses a bad value before the testbed is built: its
// InvalidArgument, which names the config field, exits 2.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "assess/audit.hpp"
#include "assess/explain.hpp"
#include "assess/report.hpp"
#include "common/error.hpp"
#include "measure/testbed.hpp"
#include "netsim/adversary.hpp"
#include "serve/service.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "world/fleet.hpp"

using namespace ageo;

namespace {
void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scale F] [--seed N] [--grid DEG] "
               "[--refine SCHED] [--threads N] [--algo NAME]\n"
               "       [--serve] [--rounds N] [--json FILE] [--ground-truth] "
               "[--metrics FILE|-]\n"
               "       [--trace FILE] [--journal FILE] [--explain N] "
               "[--attackers FRAC] [--attack NAME]\n"
               "  --scale F         fleet/constellation scale factor "
               "(default 0.25; 1.0 = paper scale)\n"
               "  --seed N          master seed (default 2018)\n"
               "  --grid DEG        analysis grid cell size (default 1.0; "
               "must divide 180 and 360 evenly)\n"
               "  --refine SCHED    coarse-to-fine refinement schedule: "
               "comma-separated cell sizes\n"
               "                    coarser than the grid (e.g. 2.0,0.5), "
               "'auto', or 'off' (default off);\n"
               "                    results are bit-identical to flat "
               "solves\n"
               "  --threads N       audit worker threads (default 1; 0 = "
               "one per hardware thread)\n"
               "  --algo NAME       geolocator: cbgpp | spotter | hybrid "
               "(default cbgpp)\n"
               "  --serve           run the always-on audit service "
               "(bootstrap + streaming rounds)\n"
               "                    instead of the one-shot batch audit\n"
               "  --rounds N        streaming re-audit rounds in --serve "
               "mode (default 50)\n"
               "  --json FILE       write per-proxy results as JSON "
               "(includes the telemetry snapshot)\n"
               "  --ground-truth    include simulator ground truth in the "
               "JSON\n"
               "  --metrics FILE|-  write the metrics snapshot as "
               "Prometheus text (- = stdout)\n"
               "  --trace FILE      write a Chrome trace_event profile "
               "(open in chrome://tracing); FILE.jsonl gets the flat log\n"
               "  --journal FILE    write the verdict provenance journal "
               "as JSONL (one event per line)\n"
               "  --explain N       print proxy N's decision narrative, "
               "rendered from the journal alone\n"
               "                    (repeatable; implies journaling for "
               "the run)\n"
               "  --attackers FRAC  compromise this fraction of landmarks "
               "(default 0 = honest fleet)\n"
               "  --attack NAME     adversary strategy: inflate | deflate "
               "| collude | drop (default collude)\n",
               argv0);
}

// Strict numeric parsing. std::atof maps garbage to 0.0 silently, which
// used to turn a typo like "--grid 0,5" into an opaque usage dump (or
// worse, an uncaught Grid exception later); require the whole token to
// parse and name the offending flag.
double parse_double(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) {
    std::fprintf(stderr, "%s: '%s' is not a number\n", flag, text);
    std::exit(2);
  }
  return v;
}

long long parse_int(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "%s: '%s' is not an integer\n", flag, text);
    std::exit(2);
  }
  // strtoll saturates on overflow; without this check a too-long seed
  // would silently become LLONG_MAX.
  if (errno == ERANGE) {
    std::fprintf(stderr, "%s: '%s' is out of range\n", flag, text);
    std::exit(2);
  }
  return v;
}

// True when `path` can be opened for writing. The probe opens in append
// mode, so an existing file keeps its contents, and removes a file it
// created, so a run that fails later leaves nothing behind.
bool writable(const std::string& path) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  if (!std::ofstream(path, std::ios::app)) return false;
  if (!existed) std::filesystem::remove(path, ec);
  return true;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}
}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;
  std::uint64_t seed = 2018;
  double grid_deg = 1.0;
  std::string refine_spec = "off";
  int threads = 1;
  std::string algo = "cbgpp";
  bool serve_mode = false;
  long long rounds = 50;
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  std::string journal_path;
  std::vector<std::uint64_t> explain_ids;
  bool ground_truth = false;
  double attackers = 0.0;
  std::string attack = "collude";

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--scale")) {
      scale = parse_double("--scale", need_value("--scale"));
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = static_cast<std::uint64_t>(
          parse_int("--seed", need_value("--seed")));
    } else if (!std::strcmp(argv[i], "--grid")) {
      grid_deg = parse_double("--grid", need_value("--grid"));
    } else if (!std::strcmp(argv[i], "--refine")) {
      refine_spec = need_value("--refine");
    } else if (!std::strcmp(argv[i], "--threads")) {
      // Range-check before narrowing: a cast first would wrap
      // 4294967297 to 1 and 2147483648 to a negative count.
      const long long t = parse_int("--threads", need_value("--threads"));
      if (t < 0 || t > std::numeric_limits<int>::max()) {
        std::fprintf(stderr, "--threads must be in [0, %d], got %lld\n",
                     std::numeric_limits<int>::max(), t);
        return 2;
      }
      threads = static_cast<int>(t);
    } else if (!std::strcmp(argv[i], "--algo")) {
      algo = need_value("--algo");
    } else if (!std::strcmp(argv[i], "--serve")) {
      serve_mode = true;
    } else if (!std::strcmp(argv[i], "--rounds")) {
      rounds = parse_int("--rounds", need_value("--rounds"));
    } else if (!std::strcmp(argv[i], "--json")) {
      json_path = need_value("--json");
    } else if (!std::strcmp(argv[i], "--metrics")) {
      metrics_path = need_value("--metrics");
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace_path = need_value("--trace");
    } else if (!std::strcmp(argv[i], "--journal")) {
      journal_path = need_value("--journal");
    } else if (!std::strcmp(argv[i], "--explain")) {
      const long long id = parse_int("--explain", need_value("--explain"));
      if (id < 0) {
        std::fprintf(stderr, "--explain: proxy index must be >= 0\n");
        return 2;
      }
      explain_ids.push_back(static_cast<std::uint64_t>(id));
    } else if (!std::strcmp(argv[i], "--attackers")) {
      attackers = parse_double("--attackers", need_value("--attackers"));
    } else if (!std::strcmp(argv[i], "--attack")) {
      attack = need_value("--attack");
    } else if (!std::strcmp(argv[i], "--ground-truth")) {
      ground_truth = true;
    } else if (!std::strcmp(argv[i], "--help") ||
               !std::strcmp(argv[i], "-h")) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(argv[0]);
      return 2;
    }
  }
  if (!(scale > 0.0 && scale <= 4.0)) {
    std::fprintf(stderr, "--scale must be in (0, 4], got %g\n", scale);
    return 2;
  }
  if (rounds < 0) {
    std::fprintf(stderr, "--rounds must be >= 0, got %lld\n", rounds);
    return 2;
  }
  if (!(attackers >= 0.0 && attackers <= 1.0)) {
    std::fprintf(stderr, "--attackers must be in [0, 1], got %g\n",
                 attackers);
    return 2;
  }
  assess::AuditConfig ac;
  serve::ServiceConfig sc;
  try {
    ac.grid_cell_deg = grid_deg;
    ac.refine = refine_spec == "auto"
                    ? mlat::RefineSchedule::recommended(grid_deg)
                    : mlat::RefineSchedule::parse(refine_spec);
    ac.algorithm = assess::parse_algorithm(algo);
    ac.seed = seed + 1;
    ac.threads = threads;
    if (serve_mode) {
      sc.audit = ac;
      // The service assesses per proxy; the batch pipeline's cross-proxy
      // AS-grouping join does not apply to a streaming pool.
      sc.audit.use_as_grouping = false;
      sc.round_quota = 32;
      sc.probes_per_round = 4;
      sc.solver_budget = 64;
      sc.max_pending = 128;
      sc.validate();
    } else {
      ac.validate();
    }
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (!netsim::profile_for_strategy(attack, geo::LatLon{0.0, 0.0})) {
    std::fprintf(stderr, "unknown --attack: %s\n", attack.c_str());
    usage(argv[0]);
    return 2;
  }

  // Refuse an unwritable output before the testbed is built, not after
  // the whole audit has run.
  const std::pair<const char*, std::string> outputs[] = {
      {"--json", json_path},
      {"--metrics", metrics_path == "-" ? "" : metrics_path},
      {"--trace", trace_path},
      {"--trace", trace_path.empty() ? "" : trace_path + ".jsonl"},
      {"--journal", journal_path}};
  for (const auto& [flag, path] : outputs) {
    if (!path.empty() && !writable(path)) {
      std::fprintf(stderr, "%s: cannot write %s\n", flag, path.c_str());
      return 2;
    }
  }

  // Telemetry is on whenever any consumer asked for it (the JSON report
  // embeds the snapshot too). Metric updates never perturb results.
  if (!metrics_path.empty() || !json_path.empty())
    obs::set_metrics_enabled(true);
  if (!trace_path.empty()) obs::set_tracing_enabled(true);
  if (!journal_path.empty() || !explain_ids.empty())
    obs::set_journal_enabled(true);

  measure::TestbedConfig tb;
  tb.seed = seed;
  tb.constellation.n_anchors =
      std::max(40, static_cast<int>(250 * std::min(1.0, scale * 2.0)));
  tb.constellation.n_probes = std::max(80, static_cast<int>(800 * scale));
  std::fprintf(stderr, "building testbed (%d anchors, %d probes)...\n",
               tb.constellation.n_anchors, tb.constellation.n_probes);
  measure::Testbed bed(tb);

  auto specs = world::default_provider_specs();
  for (auto& s : specs)
    s.target_servers = std::max(10, static_cast<int>(s.target_servers * scale));
  auto fleet = world::generate_fleet(bed.world(), specs, seed);

  std::vector<netsim::HostId> compromised;
  if (attackers > 0.0) {
    std::vector<netsim::HostId> landmark_hosts;
    landmark_hosts.reserve(bed.landmarks().size());
    for (std::size_t i = 0; i < bed.landmarks().size(); ++i)
      landmark_hosts.push_back(bed.landmark_host(i));
    // Colluders rendezvous on a fixed fake position; the other
    // strategies ignore it.
    const geo::LatLon fake{40.0, -100.0};
    compromised = netsim::attach_adversaries(bed.net(), landmark_hosts,
                                             attackers, attack, seed, fake);
    std::fprintf(stderr, "compromised %zu/%zu landmarks (%s)\n",
                 compromised.size(), landmark_hosts.size(), attack.c_str());
  }
  std::fprintf(stderr, "auditing %zu proxies...\n", fleet.hosts.size());

  if (ac.refine.enabled())
    std::fprintf(stderr, "refinement schedule: %s -> %g\n",
                 ac.refine.to_string().c_str(), grid_deg);
  assess::AuditReport report;
  std::uint64_t serve_epoch = 0;
  serve::ServiceStats serve_stats;
  if (serve_mode) {
    serve::AuditService service(bed, sc);
    service.admit(fleet);
    service.bootstrap();
    std::fprintf(stderr, "bootstrapped %zu proxies; streaming %lld "
                 "re-audit rounds...\n",
                 fleet.hosts.size(), rounds);
    service.run_rounds(static_cast<std::uint64_t>(rounds));
    serve::ServiceReport sr = service.report();
    serve_epoch = sr.epoch;
    serve_stats = sr.stats;
    report = std::move(sr);
  } else {
    assess::Auditor auditor(bed, ac);
    report = auditor.run(fleet);
  }

  assess::write_text_summary(std::cout, report, bed.world());
  std::printf("eta: %.3f [%.3f, %.3f] (R^2 %.3f, %zu pingable)\n",
              report.eta.eta, report.eta.eta_ci_low,
              report.eta.eta_ci_high, report.eta.r_squared,
              report.eta.n_proxies);

  if (serve_mode) {
    std::printf("service: epoch %llu, %llu streamed solves "
                "(%llu incremental, %llu full, %llu memo fallbacks)\n",
                static_cast<unsigned long long>(serve_epoch),
                static_cast<unsigned long long>(serve_stats.solves),
                static_cast<unsigned long long>(
                    serve_stats.incremental_updates),
                static_cast<unsigned long long>(serve_stats.full_resolves),
                static_cast<unsigned long long>(serve_stats.memo_fallbacks));
    std::printf("         %llu probes (%llu failed), %llu verdict changes, "
                "%llu deferred picks, %llu reconnects\n",
                static_cast<unsigned long long>(serve_stats.probes),
                static_cast<unsigned long long>(serve_stats.probe_failures),
                static_cast<unsigned long long>(serve_stats.verdict_changes),
                static_cast<unsigned long long>(serve_stats.deferred_picks),
                static_cast<unsigned long long>(serve_stats.reconnects));
  }

  // Byzantine section: who the subset engine distrusts. Printed whenever
  // something is flagged, or always under an explicit attack so the
  // operator sees a (possibly empty) verdict either way.
  std::size_t byz_rows = 0;
  for (const auto& r : report.rows)
    if (r.byzantine) ++byz_rows;
  if (byz_rows || !report.suspicious_landmarks.empty() || attackers > 0.0) {
    std::printf("byzantine: %zu flagged proxy rows, %zu suspicious "
                "landmarks\n",
                byz_rows, report.suspicious_landmarks.size());
    for (std::size_t id : report.suspicious_landmarks) {
      const auto& e = report.suspicion.entry(id);
      const bool truly = std::find(compromised.begin(), compromised.end(),
                                   bed.landmark_host(id)) !=
                         compromised.end();
      std::printf("  landmark %3zu: excluded %llu/%llu solves "
                  "(score %.2f)%s\n",
                  id, static_cast<unsigned long long>(e.excluded),
                  static_cast<unsigned long long>(e.solves), e.score(),
                  attackers > 0.0 ? (truly ? "  [attacker]" : "  [honest!]")
                                  : "");
    }
  }

  if (!report.telemetry.empty()) {
    // Scratch-arena report: how much the pooled hot-path buffers cost
    // (allocations should be a handful regardless of proxy count) and
    // how hard they were exercised.
    const auto counter = [&](const char* name) -> std::uint64_t {
      for (const auto& c : report.telemetry.counters)
        if (c.name == name) return c.value;
      return 0;
    };
    const auto gauge = [&](const char* name) -> double {
      for (const auto& g : report.telemetry.gauges)
        if (g.name == name) return g.value;
      return 0.0;
    };
    std::printf("scratch arenas:\n");
    std::printf("  heap bytes: %.0f allocated, %.0f high water, "
                "%.0f retained\n",
                gauge("mlat.scratch.bytes_allocated"),
                gauge("mlat.scratch.high_water_bytes"),
                gauge("mlat.scratch.retained_bytes"));
    std::printf("  buffer allocations: %llu region, %llu cover, "
                "%llu field, %llu index\n",
                static_cast<unsigned long long>(
                    counter("grid.alloc.region_buffers")),
                static_cast<unsigned long long>(
                    counter("grid.alloc.cover_buffers")),
                static_cast<unsigned long long>(
                    counter("grid.alloc.field_buffers")),
                static_cast<unsigned long long>(
                    counter("grid.alloc.index_buffers")));
    std::printf("  lease acquires: %llu region, %llu words, "
                "%llu field, %llu index\n",
                static_cast<unsigned long long>(
                    counter("mlat.scratch.region_acquires")),
                static_cast<unsigned long long>(
                    counter("mlat.scratch.words_acquires")),
                static_cast<unsigned long long>(
                    counter("mlat.scratch.field_acquires")),
                static_cast<unsigned long long>(
                    counter("mlat.scratch.index_acquires")));
    std::printf("subset engine: %llu solves, %llu constraints, "
                "%llu fast-path, %llu excluded\n",
                static_cast<unsigned long long>(counter("mlat.lcs.solves")),
                static_cast<unsigned long long>(
                    counter("mlat.lcs.constraints")),
                static_cast<unsigned long long>(
                    counter("mlat.lcs.fast_path_hits")),
                static_cast<unsigned long long>(
                    counter("mlat.lcs.excluded")));
    if (counter("netsim.adversary.hosts_compromised")) {
      std::printf("adversary: %llu hosts, %llu probes shifted, "
                  "%llu forged, %llu dropped\n",
                  static_cast<unsigned long long>(
                      counter("netsim.adversary.hosts_compromised")),
                  static_cast<unsigned long long>(
                      counter("netsim.adversary.probes_shifted")),
                  static_cast<unsigned long long>(
                      counter("netsim.adversary.probes_forged")),
                  static_cast<unsigned long long>(
                      counter("netsim.adversary.probes_dropped")));
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    assess::ReportOptions opt;
    opt.include_ground_truth = ground_truth;
    assess::write_json(out, report, bed.world(), opt);
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }

  if (!metrics_path.empty()) {
    const std::string text = report.telemetry.to_prometheus();
    if (metrics_path == "-") {
      std::fwrite(text.data(), 1, text.size(), stdout);
    } else if (write_text_file(metrics_path, text)) {
      std::fprintf(stderr, "wrote %s\n", metrics_path.c_str());
    } else {
      return 1;
    }
  }

  if (!journal_path.empty() || !explain_ids.empty()) {
    const obs::JournalDump jdump = obs::collect_journal();
    if (!journal_path.empty()) {
      if (!write_text_file(journal_path, obs::journal_to_jsonl(jdump)))
        return 1;
      std::fprintf(stderr, "wrote %s (%zu events, %llu dropped)\n",
                   journal_path.c_str(), jdump.events.size(),
                   static_cast<unsigned long long>(jdump.dropped));
    }
    for (std::uint64_t id : explain_ids) {
      const std::string text = assess::explain_proxy(jdump, id);
      std::fwrite(text.data(), 1, text.size(), stdout);
    }
  }

  if (!trace_path.empty()) {
    const obs::TraceDump dump = obs::collect_trace();
    if (!write_text_file(trace_path, obs::trace_to_chrome_json(dump)) ||
        !write_text_file(trace_path + ".jsonl", obs::trace_to_jsonl(dump)))
      return 1;
    std::fprintf(stderr, "wrote %s (+.jsonl, %zu events, %llu dropped)\n",
                 trace_path.c_str(), dump.events.size(),
                 static_cast<unsigned long long>(dump.dropped));
  }
  return 0;
}
