// Measuring through proxies (paper §5.3, Figs. 12-13).
//
// A connect through the tunnel measures RTT(client, proxy) +
// RTT(proxy, landmark). The client-proxy leg is estimated by pinging the
// client's own public address through the tunnel — which crosses the
// tunnel twice, so the estimate is scaled by eta, the robust-regression
// slope of direct against indirect RTTs over the (few) proxies that
// answer direct pings. The paper measures eta = 0.49 with R^2 > 0.99.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "measure/testbed.hpp"
#include "measure/two_phase.hpp"
#include "netsim/proxy.hpp"
#include "stats/regression.hpp"

namespace ageo::measure {

struct EtaEstimate {
  double eta = 0.5;
  double r_squared = 0.0;
  std::size_t n_proxies = 0;
  /// 95% bootstrap confidence interval over proxies (equal to eta when
  /// too few proxies were pingable to resample).
  double eta_ci_low = 0.5;
  double eta_ci_high = 0.5;
};

/// Estimate eta from every session whose proxy answers direct pings.
/// `samples` pings of each kind per proxy; minima are regressed
/// (Theil–Sen, robust). Returns the default eta = 0.5 with n_proxies == 0
/// when fewer than 3 proxies are pingable. The pings run serially; the
/// bootstrap refits run on up to `threads` workers (resolve_threads), and
/// the result is bit-identical at every thread count.
EtaEstimate estimate_eta(std::span<netsim::ProxySession> sessions,
                         int samples = 5, int threads = 1);

/// Probe adapter: measures landmarks through one proxy and subtracts the
/// estimated client-proxy RTT.
class ProxyProber {
 public:
  /// Corrections that come out negative are clamped to this floor, ms.
  static constexpr double kCorrectionFloorMs = 0.05;

  /// Takes `self_ping_samples` tunnel self-pings up front; their minimum
  /// times eta estimates the client-proxy RTT.
  ProxyProber(const Testbed& bed, netsim::ProxySession& session, double eta,
              int self_ping_samples = 5);

  /// Resume with a previously measured client-proxy RTT estimate — no
  /// self-pings are taken. Used by the always-on service's epoch-snapshot
  /// restore (src/serve), where re-pinging would shift every subsequent
  /// corrected measurement away from the run being resumed.
  static ProxyProber resume(const Testbed& bed, netsim::ProxySession& session,
                            double eta, double tunnel_rtt_ms);

  /// Corrected RTT(proxy, landmark), ms; nullopt when the landmark
  /// filtered the connection. Corrections that come out negative are
  /// clamped to kCorrectionFloorMs (they mean the tunnel estimate
  /// ate the whole measurement — keep the observation maximally
  /// uninformative rather than impossible).
  std::optional<double> operator()(std::size_t landmark_id);

  /// Like operator(), but distinguishes accepted / refused-but-measured
  /// / timed-out connects for campaign telemetry.
  ProbeReply rich_probe(std::size_t landmark_id);

  /// A ProbeFn view of this prober.
  ProbeFn as_probe_fn();
  /// A RichProbeFn view of this prober.
  RichProbeFn as_rich_probe_fn();

  double tunnel_rtt_ms() const noexcept { return tunnel_rtt_ms_; }

  netsim::ProxySession& session() noexcept { return *session_; }
  const netsim::ProxySession& session() const noexcept { return *session_; }

  /// Re-take the tunnel self-ping (after a reconnect) and replace the
  /// client-proxy RTT estimate. Returns the new estimate, or nullopt —
  /// leaving the old estimate in place — when the tunnel is down.
  std::optional<double> retake_self_ping(int samples = 5);

 private:
  struct ResumeTag {};
  ProxyProber(const Testbed& bed, netsim::ProxySession& session, double eta,
              double tunnel_rtt_ms, ResumeTag);

  const Testbed* bed_;
  netsim::ProxySession* session_;
  double eta_;
  double tunnel_rtt_ms_ = 0.0;
};

}  // namespace ageo::measure
