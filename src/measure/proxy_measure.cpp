#include "measure/proxy_measure.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "measure/tools.hpp"
#include "obs/obs.hpp"

namespace ageo::measure {

EtaEstimate estimate_eta(std::span<netsim::ProxySession> sessions,
                         int samples, int threads) {
  detail::require(samples > 0, "estimate_eta: samples must be > 0");
  std::vector<double> direct, indirect;
  for (auto& s : sessions) {
    if (!s.behavior().icmp_responds) continue;
    double d = std::numeric_limits<double>::infinity();
    double ind = std::numeric_limits<double>::infinity();
    bool ok = true;
    for (int i = 0; i < samples; ++i) {
      auto dp = s.direct_ping_ms();
      if (!dp) {
        ok = false;
        break;
      }
      d = std::min(d, *dp);
      ind = std::min(ind, s.self_ping_ms());
    }
    if (!ok) continue;
    direct.push_back(d);
    indirect.push_back(ind);
  }
  EtaEstimate e;
  e.n_proxies = direct.size();
  if (direct.size() < 3) return e;  // default eta = 0.5
  auto fit = stats::theil_sen(indirect, direct);
  e.eta = fit.slope;
  e.r_squared = fit.r_squared;
  e.eta_ci_low = e.eta_ci_high = e.eta;

  // 95% bootstrap CI over proxies (resample pairs, refit).
  const std::size_t m = direct.size();
  if (m >= 5) {
    constexpr std::size_t kResamples = 200;
    constexpr std::size_t kFitsPerTask = 4;
    static_assert(kResamples % kFitsPerTask == 0);
    // Every resample's indices are drawn first, from the one stream and
    // in resample order, so the fits below may run on any worker.
    Rng rng(hash_name("eta-bootstrap") ^ m);
    std::vector<std::size_t> draws(kResamples * m);
    for (std::size_t& k : draws) k = rng.uniform_index(m);
    // Slot r holds resample r's slope; degenerate resamples (all-equal
    // x) are skipped and leave their slot empty. Each task reuses one
    // set of buffers for its block of fits.
    std::vector<std::optional<double>> fit(kResamples);
    parallel_for(kResamples / kFitsPerTask, threads, [&](std::size_t t) {
      std::vector<double> bx(m), by(m), pair_slopes;
      for (std::size_t r = t * kFitsPerTask; r < (t + 1) * kFitsPerTask;
           ++r) {
        const std::size_t* k = &draws[r * m];
        for (std::size_t i = 0; i < m; ++i) {
          bx[i] = indirect[k[i]];
          by[i] = direct[k[i]];
        }
        if (std::all_of(bx.begin(), bx.end(),
                        [&](double x) { return x == bx[0]; }))
          continue;
        fit[r] = stats::theil_sen_slope(bx, by, pair_slopes);
      }
    });
    // Compacted in resample order: the same vector a serial loop builds.
    std::vector<double> slopes;
    slopes.reserve(kResamples);
    for (const std::optional<double>& f : fit)
      if (f) slopes.push_back(*f);
    AGEO_COUNTER_ADD("measure.eta.bootstrap_fits", slopes.size());
    if (slopes.size() >= 20) {
      std::sort(slopes.begin(), slopes.end());
      e.eta_ci_low = slopes[slopes.size() * 25 / 1000];
      e.eta_ci_high = slopes[slopes.size() * 975 / 1000];
    }
  }
  // With few proxies the bootstrap degenerates (or is skipped outright);
  // whatever happened, the interval must bracket the point estimate.
  e.eta_ci_low = std::min(e.eta_ci_low, e.eta);
  e.eta_ci_high = std::max(e.eta_ci_high, e.eta);
  return e;
}

ProxyProber::ProxyProber(const Testbed& bed, netsim::ProxySession& session,
                         double eta, int self_ping_samples)
    : bed_(&bed), session_(&session), eta_(eta) {
  detail::require(eta > 0.0 && eta < 1.0,
                  "ProxyProber: eta must be in (0, 1)");
  detail::require(self_ping_samples > 0,
                  "ProxyProber: need at least one self ping");
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < self_ping_samples; ++i)
    best = std::min(best, session.self_ping_ms());
  tunnel_rtt_ms_ = eta_ * best;
}

ProxyProber::ProxyProber(const Testbed& bed, netsim::ProxySession& session,
                         double eta, double tunnel_rtt_ms, ResumeTag)
    : bed_(&bed), session_(&session), eta_(eta),
      tunnel_rtt_ms_(tunnel_rtt_ms) {
  detail::require(eta > 0.0 && eta < 1.0,
                  "ProxyProber: eta must be in (0, 1)");
  detail::require(tunnel_rtt_ms >= 0.0,
                  "ProxyProber: tunnel RTT must be non-negative");
}

ProxyProber ProxyProber::resume(const Testbed& bed,
                                netsim::ProxySession& session, double eta,
                                double tunnel_rtt_ms) {
  return ProxyProber(bed, session, eta, tunnel_rtt_ms, ResumeTag{});
}

std::optional<double> ProxyProber::operator()(std::size_t landmark_id) {
  auto r = rich_probe(landmark_id);
  if (!r.measured()) return std::nullopt;
  return r.rtt_ms;
}

ProbeReply ProxyProber::rich_probe(std::size_t landmark_id) {
  netsim::HostId lm = bed_->landmark_host(landmark_id);
  auto r = session_->connect_via(lm, 80);
  if (r.outcome == netsim::ConnectOutcome::kTimeout)
    return {ProbeOutcome::kTimeout, 0.0};
  if (r.outcome == netsim::ConnectOutcome::kDropped)
    return {ProbeOutcome::kDropped, 0.0};
  double corrected = std::max(kCorrectionFloorMs,
                              r.elapsed_ms - tunnel_rtt_ms_);
  return {r.outcome == netsim::ConnectOutcome::kRefused
              ? ProbeOutcome::kRefusedMeasured
              : ProbeOutcome::kOk,
          corrected};
}

ProbeFn ProxyProber::as_probe_fn() {
  return [this](std::size_t id) { return (*this)(id); };
}

RichProbeFn ProxyProber::as_rich_probe_fn() {
  return [this](std::size_t id) { return rich_probe(id); };
}

std::optional<double> ProxyProber::retake_self_ping(int samples) {
  detail::require(samples > 0,
                  "ProxyProber::retake_self_ping: need at least one ping");
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < samples; ++i) {
    auto p = session_->try_self_ping_ms();
    if (!p) return std::nullopt;
    best = std::min(best, *p);
  }
  tunnel_rtt_ms_ = eta_ * best;
  return tunnel_rtt_ms_;
}

}  // namespace ageo::measure
