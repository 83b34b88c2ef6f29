#include "assess/explain.hpp"

#include <algorithm>
#include <set>

namespace ageo::assess {

namespace {

/// Field value or "" — the renderer degrades per field, never throws.
std::string field(const obs::JournalEvent& ev, std::string_view key) {
  return obs::journal_field(ev, key).value_or(std::string());
}

/// Field value or "?" for slots where an empty string would read as a
/// blank in the narrative.
std::string field_q(const obs::JournalEvent& ev, std::string_view key) {
  auto v = obs::journal_field(ev, key);
  return v && !v->empty() ? *v : std::string("?");
}

bool flag_set(const obs::JournalEvent& ev, std::string_view key) {
  return field(ev, key) == "true";
}

void append_line(std::string& out, std::string_view line) {
  out += line;
  out += '\n';
}

}  // namespace

std::vector<std::uint64_t> journaled_proxies(const obs::JournalDump& dump) {
  std::vector<std::uint64_t> out;
  for (const auto& ev : dump.events)
    if (ev.proxy != obs::kRunEvent &&
        (out.empty() || out.back() != ev.proxy))
      out.push_back(ev.proxy);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string explain_proxy(const obs::JournalDump& dump,
                          std::uint64_t proxy) {
  // Partition the (already proxy-sorted) dump: this proxy's stream,
  // plus the run-level evidence at the end.
  std::vector<const obs::JournalEvent*> mine;
  std::vector<const obs::JournalEvent*> run;
  for (const auto& ev : dump.events) {
    if (ev.proxy == proxy) mine.push_back(&ev);
    if (ev.proxy == obs::kRunEvent) run.push_back(&ev);
  }
  std::string out = "proxy " + std::to_string(proxy) + "\n";
  if (mine.empty()) {
    append_line(out, "  (no journal events for this proxy)");
    return out;
  }

  std::set<std::string> my_landmarks;
  std::size_t constraints = 0, used = 0;

  for (const obs::JournalEvent* ev : mine) {
    if (ev->kind == "campaign") {
      append_line(out, "  campaign: provider \"" + field(*ev, "provider") +
                           "\", claimed country " +
                           field_q(*ev, "claimed_country"));
      append_line(out,
                  "    " + field_q(*ev, "observations") +
                      " observations from " + field_q(*ev, "probes_sent") +
                      " probes over " + field_q(*ev, "rounds") +
                      " rounds (ok " + field_q(*ev, "ok") + ", timeouts " +
                      field_q(*ev, "timeouts") + ", dropped " +
                      field_q(*ev, "dropped") + ")");
      append_line(out, "    retries " + field_q(*ev, "retries") +
                           " (exhausted " + field_q(*ev, "retry_exhausted") +
                           "), breaker trips " +
                           field_q(*ev, "breaker_trips") + " / skips " +
                           field_q(*ev, "breaker_skips") +
                           ", replacements " +
                           field_q(*ev, "replacements") +
                           ", tunnel drops " +
                           field_q(*ev, "tunnel_drops") +
                           (flag_set(*ev, "tunnel_flagged")
                                ? ", TUNNEL FLAGGED"
                                : ""));
    } else if (ev->kind == "constraint") {
      if (constraints == 0) append_line(out, "  constraints:");
      ++constraints;
      const bool u = flag_set(*ev, "used");
      if (u) ++used;
      my_landmarks.insert(field(*ev, "landmark"));
      append_line(out, "    [" + field_q(*ev, "idx") + "] landmark " +
                           field_q(*ev, "landmark") + " @ (" +
                           field_q(*ev, "lat") + ", " + field_q(*ev, "lon") +
                           ") delay " + field_q(*ev, "delay_ms") + " ms  " +
                           (u ? "used" : "DISCARDED"));
    } else if (ev->kind == "lcs") {
      append_line(out,
                  "  largest consistent subset: kept " +
                      field_q(*ev, "used") + " of " + field_q(*ev, "total") +
                      " constraints (agreement " +
                      field_q(*ev, "agreement") + ", margin " +
                      field_q(*ev, "margin") + ")");
      // Two distinct counts from the two-stage solve: stage 1 keeps a
      // consistent subset of the physics-only (baseline) disks, stage 2
      // then discards bestline disks that miss the baseline region.
      append_line(out, "    physics baseline: subset kept " +
                           field_q(*ev, "baseline_subset") +
                           " disk(s); its region discarded " +
                           field_q(*ev, "discarded_by_baseline") +
                           " bestline disk(s)" +
                           (flag_set(*ev, "byzantine")
                                ? "; coalition too small -> BYZANTINE"
                                : ""));
    } else if (ev->kind == "refine") {
      std::string ladder = field(*ev, "ladder");
      append_line(out,
                  std::string("  refine: ") +
                      (flag_set(*ev, "refined") ? "ladder of " +
                                                      field_q(*ev, "levels") +
                                                      " level pass(es)"
                                                : "off (flat solve)") +
                      (ladder.empty()
                           ? ""
                           : " [cell_deg:survivors " + ladder + "]"));
    } else if (ev->kind == "assess") {
      append_line(out, "  assessment: raw " + field_q(*ev, "verdict_raw") +
                           ", after data centers " +
                           field_q(*ev, "verdict_dc") + ", continent " +
                           field_q(*ev, "continent"));
      std::string line = "    region " + field_q(*ev, "area_km2") +
                         " km^2, " + field_q(*ev, "candidates") +
                         " candidate country(ies)";
      if (auto lat = obs::journal_field(*ev, "centroid_lat"))
        line += ", centroid (" + *lat + ", " + field(*ev, "centroid_lon") +
                "), nearest landmark " +
                field_q(*ev, "nearest_landmark_km") + " km";
      if (flag_set(*ev, "empty_prediction")) line += ", EMPTY PREDICTION";
      line += flag_set(*ev, "iclab_accepted") ? "; iclab check: accepted"
                                              : "; iclab check: rejected";
      append_line(out, line);
    } else if (ev->kind == "verdict") {
      append_line(out, "  verdict: " + field_q(*ev, "final") +
                           (flag_set(*ev, "byzantine") ? " (byzantine)"
                                                       : "") +
                           ", region " + field_q(*ev, "area_km2") +
                           " km^2");
    } else if (ev->kind == "latency") {
      append_line(out, "  wall latency: " + field_q(*ev, "verdict_us") +
                           " us (campaign + locate share + assess)");
    }
  }

  // Run-level suspicion/drift evidence, restricted to landmarks that
  // actually constrained this proxy.
  bool header = false;
  for (const obs::JournalEvent* ev : run) {
    if (ev->kind != "suspicion" && ev->kind != "drift") continue;
    if (!my_landmarks.count(field(*ev, "landmark"))) continue;
    if (!header) {
      append_line(out, "  landmark evidence (fleet-wide):");
      header = true;
    }
    if (ev->kind == "suspicion") {
      append_line(out, "    landmark " + field_q(*ev, "landmark") +
                           ": excluded from " + field_q(*ev, "excluded") +
                           " of " + field_q(*ev, "solves") +
                           " winning coalitions (score " +
                           field_q(*ev, "score") + ")");
    } else {
      append_line(out, "    landmark " + field_q(*ev, "landmark") +
                           ": delay drift EWMA " + field_q(*ev, "ewma_ms") +
                           " ms over " + field_q(*ev, "samples") +
                           " samples (residual range " +
                           field_q(*ev, "min_ms") + " .. " +
                           field_q(*ev, "max_ms") + " ms)");
    }
  }
  return out;
}

}  // namespace ageo::assess
