// Instrumentation macros — the only obs API call sites should need.
//
// Each macro registers its metric once (function-local static id,
// initialized only on the first pass where metrics are enabled) and
// then updates it. Cost when telemetry is runtime-disabled: one relaxed
// atomic load and a predicted-not-taken branch. Cost when compiled out
// (-DAGEO_OBS=OFF ⇒ AGEO_OBS_ENABLED=0): literally nothing — the
// macros expand to ((void)0) and no obs symbol is referenced.
//
//   AGEO_COUNT("measure.probes_sent");             // counter += 1
//   AGEO_COUNTER_ADD("measure.retries", n);        // counter += n
//   AGEO_GAUGE_SET("assess.eta_ms", eta);          // gauge = v (serial!)
//   AGEO_HIST("measure.rtt_ms", rtt, 0.5, 4096.0); // deterministic value
//   AGEO_HIST_WALL("x.us", v, lo, hi);             // wall-clock value
//   AGEO_TIMED_NS("grid.ring_multiply_ns", lo, hi);// RAII span timer, ns
//   AGEO_TIMED_US("assess.proxy_us", lo, hi);      // RAII span timer, µs
//   AGEO_SPAN("audit", "proxy");                   // RAII trace span
//   AGEO_STAGE_SPAN("assess", "audit.run");        // span kept off the
//                                                  // wrapping ring
//
// Names must be string literals. Timer histograms are registered as
// Clock::kWallClock automatically; AGEO_HIST is for values derived from
// the seeded workload (simulated RTTs, areas, counts) and must stay
// bit-identical across thread counts.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if AGEO_OBS_ENABLED

// Line-pasted unique identifiers so two macros can share a scope.
#define AGEO_OBS_CAT2(a, b) a##b
#define AGEO_OBS_CAT(a, b) AGEO_OBS_CAT2(a, b)

#define AGEO_COUNTER_ADD(name_lit, n)                                        \
  do {                                                                       \
    if (::ageo::obs::metrics_enabled()) {                                    \
      static const ::ageo::obs::CounterId AGEO_OBS_CAT(ageo_obs_id_,         \
                                                       __LINE__) =           \
          ::ageo::obs::Registry::global().counter(name_lit);                 \
      ::ageo::obs::Registry::global().add(                                   \
          AGEO_OBS_CAT(ageo_obs_id_, __LINE__), (n));                        \
    }                                                                        \
  } while (0)

#define AGEO_COUNT(name_lit) AGEO_COUNTER_ADD(name_lit, 1)

// Wall-clock-tagged counter: for values that depend on scheduling or
// pool history (e.g. scratch-arena buffer allocations, which differ by
// thread count because every worker warms its own arena). Excluded from
// the deterministic snapshot view, like timer histograms.
#define AGEO_COUNTER_ADD_WALL(name_lit, n)                                   \
  do {                                                                       \
    if (::ageo::obs::metrics_enabled()) {                                    \
      static const ::ageo::obs::CounterId AGEO_OBS_CAT(ageo_obs_id_,         \
                                                       __LINE__) =           \
          ::ageo::obs::Registry::global().counter(                           \
              name_lit, ::ageo::obs::Clock::kWallClock);                     \
      ::ageo::obs::Registry::global().add(                                   \
          AGEO_OBS_CAT(ageo_obs_id_, __LINE__), (n));                        \
    }                                                                        \
  } while (0)

#define AGEO_COUNT_WALL(name_lit) AGEO_COUNTER_ADD_WALL(name_lit, 1)

#define AGEO_GAUGE_SET(name_lit, v)                                          \
  do {                                                                       \
    if (::ageo::obs::metrics_enabled()) {                                    \
      static const ::ageo::obs::GaugeId AGEO_OBS_CAT(ageo_obs_id_,           \
                                                     __LINE__) =             \
          ::ageo::obs::Registry::global().gauge(name_lit);                   \
      ::ageo::obs::Registry::global().set(                                   \
          AGEO_OBS_CAT(ageo_obs_id_, __LINE__), (v));                        \
    }                                                                        \
  } while (0)

// Wall-clock-tagged gauge (same rationale as AGEO_COUNTER_ADD_WALL).
#define AGEO_GAUGE_SET_WALL(name_lit, v)                                     \
  do {                                                                       \
    if (::ageo::obs::metrics_enabled()) {                                    \
      static const ::ageo::obs::GaugeId AGEO_OBS_CAT(ageo_obs_id_,           \
                                                     __LINE__) =             \
          ::ageo::obs::Registry::global().gauge(                             \
              name_lit, ::ageo::obs::Clock::kWallClock);                     \
      ::ageo::obs::Registry::global().set(                                   \
          AGEO_OBS_CAT(ageo_obs_id_, __LINE__), (v));                        \
    }                                                                        \
  } while (0)

#define AGEO_OBS_HIST_IMPL(name_lit, v, lo_, hi_, clock_)                    \
  do {                                                                       \
    if (::ageo::obs::metrics_enabled()) {                                    \
      static const ::ageo::obs::HistogramId AGEO_OBS_CAT(ageo_obs_id_,       \
                                                         __LINE__) =         \
          ::ageo::obs::Registry::global().histogram(                         \
              name_lit, {(lo_), (hi_), 4, (clock_)});                        \
      ::ageo::obs::Registry::global().observe(                               \
          AGEO_OBS_CAT(ageo_obs_id_, __LINE__), (v));                        \
    }                                                                        \
  } while (0)

#define AGEO_HIST(name_lit, v, lo_, hi_)                                     \
  AGEO_OBS_HIST_IMPL(name_lit, v, lo_, hi_,                                  \
                     ::ageo::obs::Clock::kDeterministic)

#define AGEO_HIST_WALL(name_lit, v, lo_, hi_)                                \
  AGEO_OBS_HIST_IMPL(name_lit, v, lo_, hi_, ::ageo::obs::Clock::kWallClock)

// RAII wall-clock timers: observe scope duration into a histogram when
// the scope exits. Disarmed (invalid id, no clock read) when disabled.
// The id is cached in a static local of an immediately-invoked lambda,
// so the registry lookup happens once per site, not once per scope.
#define AGEO_OBS_TIMED_IMPL(name_lit, lo_, hi_, scale_)                      \
  ::ageo::obs::ScopedTimer AGEO_OBS_CAT(ageo_obs_timer_, __LINE__)(          \
      ([]() -> ::ageo::obs::HistogramId {                                    \
        if (!::ageo::obs::metrics_enabled())                                 \
          return ::ageo::obs::HistogramId{};                                 \
        static const ::ageo::obs::HistogramId id =                           \
            ::ageo::obs::Registry::global().histogram(                       \
                name_lit,                                                    \
                {(lo_), (hi_), 4, ::ageo::obs::Clock::kWallClock});          \
        return id;                                                           \
      })(),                                                                  \
      (scale_))

#define AGEO_TIMED_NS(name_lit, lo_, hi_)                                    \
  AGEO_OBS_TIMED_IMPL(name_lit, lo_, hi_, 1.0)

#define AGEO_TIMED_US(name_lit, lo_, hi_)                                    \
  AGEO_OBS_TIMED_IMPL(name_lit, lo_, hi_, 1e-3)

#define AGEO_SPAN(cat_lit, name_lit)                                         \
  ::ageo::obs::Span AGEO_OBS_CAT(ageo_obs_span_, __LINE__)(cat_lit, name_lit)

#define AGEO_STAGE_SPAN(cat_lit, name_lit)                                   \
  ::ageo::obs::Span AGEO_OBS_CAT(ageo_obs_span_, __LINE__)(                  \
      cat_lit, name_lit, ::ageo::obs::SpanStore::kStage)

#else  // AGEO_OBS_ENABLED == 0

#define AGEO_COUNTER_ADD(name_lit, n) ((void)0)
#define AGEO_COUNT(name_lit) ((void)0)
#define AGEO_COUNTER_ADD_WALL(name_lit, n) ((void)0)
#define AGEO_COUNT_WALL(name_lit) ((void)0)
#define AGEO_GAUGE_SET(name_lit, v) ((void)0)
#define AGEO_GAUGE_SET_WALL(name_lit, v) ((void)0)
#define AGEO_HIST(name_lit, v, lo_, hi_) ((void)0)
#define AGEO_HIST_WALL(name_lit, v, lo_, hi_) ((void)0)
#define AGEO_TIMED_NS(name_lit, lo_, hi_) ((void)0)
#define AGEO_TIMED_US(name_lit, lo_, hi_) ((void)0)
#define AGEO_SPAN(cat_lit, name_lit) ((void)0)
#define AGEO_STAGE_SPAN(cat_lit, name_lit) ((void)0)

#endif  // AGEO_OBS_ENABLED
