// A minimal fork-join parallel_for over an index range.
//
// The audit fan-out needs exactly one primitive: run f(0..n-1) across a
// bounded set of workers, join, and rethrow the first failure. Indices
// are dealt as contiguous per-worker stripes claimed in cache-friendly
// chunks; a worker that drains its stripe steals a chunk from the stripe
// with the most work remaining, so an expensive proxy campaign does not
// leave a whole stripe of the fleet pinned behind it while keeping the
// common case (balanced work) sequential per worker — consecutive
// indices share plan-cache and allocator state far more often than
// round-robin dealing does. Determinism is the caller's problem: f(i)
// must depend only on i, never on which worker ran it or in what order —
// see DESIGN.md, "Parallel audit determinism".
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace ageo {

/// Number of workers a `threads` request resolves to: 0 = one per
/// hardware thread, otherwise the request itself (floored at 1), never
/// more than `n` items.
inline int resolve_threads(int threads, std::size_t n) noexcept {
  int want = threads == 0
                 ? static_cast<int>(std::thread::hardware_concurrency())
                 : threads;
  if (want < 1) want = 1;
  if (n < static_cast<std::size_t>(want)) want = static_cast<int>(n);
  return want;
}

namespace detail {

/// One worker's slice of the index range. Cache-line sized so a stealer
/// hammering one stripe's cursor does not bounce its neighbours' lines.
struct alignas(64) WorkStripe {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
};

}  // namespace detail

/// Invoke f(i) for every i in [0, n), on up to `threads` workers
/// (resolve_threads above). With one worker everything runs in the
/// calling thread — no pool, no atomics. Exceptions: the first one
/// thrown (by any worker) is rethrown here after all workers drain;
/// remaining indices are abandoned, not silently skipped-and-ignored.
template <typename F>
void parallel_for(std::size_t n, int threads, F&& f) {
  const int workers = resolve_threads(threads, n);
  AGEO_COUNT("common.parallel_for.calls");
  AGEO_COUNTER_ADD("common.parallel_for.items", n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }

  // Contiguous stripes, one per worker; the first n % workers stripes
  // absorb the remainder. Written before any thread spawns (spawn is the
  // publishing synchronisation point).
  std::vector<detail::WorkStripe> stripes(static_cast<std::size_t>(workers));
  {
    const std::size_t base = n / static_cast<std::size_t>(workers);
    const std::size_t rem = n % static_cast<std::size_t>(workers);
    std::size_t lo = 0;
    for (std::size_t w = 0; w < stripes.size(); ++w) {
      const std::size_t len = base + (w < rem ? 1 : 0);
      stripes[w].next.store(lo, std::memory_order_relaxed);
      stripes[w].end = lo + len;
      lo += len;
    }
  }
  // Chunked claims amortise the cursor RMW; ~8 chunks per stripe keeps
  // steal granularity fine enough for skewed work.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(workers) * 8));

  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;

  auto work = [&](std::size_t self) noexcept {
    AGEO_SPAN("common", "parallel_for.worker");
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      detail::WorkStripe* s = &stripes[self];
      if (s->next.load(std::memory_order_relaxed) >= s->end) {
        // Own stripe drained: steal from the stripe with the most left.
        s = nullptr;
        std::size_t best = 0;
        for (detail::WorkStripe& cand : stripes) {
          const std::size_t nx = cand.next.load(std::memory_order_relaxed);
          const std::size_t left = nx < cand.end ? cand.end - nx : 0;
          if (left > best) {
            best = left;
            s = &cand;
          }
        }
        if (s == nullptr) return;  // everything claimed
      }
      const std::size_t b = s->next.fetch_add(chunk, std::memory_order_relaxed);
      if (b >= s->end) continue;  // lost the race; rescan
      const std::size_t e = std::min(b + chunk, s->end);
      for (std::size_t i = b; i < e; ++i) {
        if (failed.load(std::memory_order_relaxed)) return;
        try {
          f(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers) - 1);
    for (int t = 1; t < workers; ++t) {
      pool.emplace_back(
          [&work, t]() noexcept { work(static_cast<std::size_t>(t)); });
    }
    work(0);  // the calling thread runs stripe 0
  }  // jthreads join on scope exit
  if (error) std::rethrow_exception(error);
}

}  // namespace ageo
