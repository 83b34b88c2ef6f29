// Thread-local scratch arenas for grid-sized temporaries.
//
// The steady-state audit loop needs the same handful of large buffers
// for every proxy: a Region or two for running intersections, the LCS
// coverage planes (8 bytes per cell per 64 constraints), a Field for
// Spotter posteriors, and a few index vectors. Allocating and
// zero-filling them per locate() call is the dominant structural waste
// left after PR 2/3 (8.3 MB of coverage vector per call at 0.25°).
//
// A Scratch pools those buffers per worker thread. Callers take RAII
// leases; destruction returns the buffer — with its capacity — to the
// arena, so after a short warmup the audit loop performs zero heap
// allocations for grid buffers (asserted by the obs counters below, and
// by a steady-state guard test in audit_parallel_test).
//
// Every kind is pooled by the same code: one Lease template and one
// take/give path. A kind supplies only its reset-to-handed-out-state
// step (in its factory), its byte size and its allocation counter name.
//
// Ownership and clearing rules (DESIGN.md §9):
//  * Arenas are strictly thread-affine: Scratch::tls() returns the
//    calling thread's arena and leases must not cross threads.
//  * The ARENA clears: a lease is handed out in a known state (zeroed
//    Region / zeroed words / uniform Field / empty index vector), so
//    tenants never see a previous tenant's bits.
//  * Word leases support dirty-range tracking: a tenant that promises
//    all its writes fall inside marked ranges (mark_dirty) makes the
//    next acquire's clear cost O(touched rows) instead of O(grid) — the
//    LCS coverage planes touch only each disk's latitude band, a few
//    percent of the grid in the common case.
//  * When a thread exits, its arena donates its buffers to a process-
//    wide store; new arenas (e.g. next run's workers) adopt from it
//    before allocating, so even short-lived audit workers reach steady
//    state after the first run. The store needs no cap: a buffer is
//    allocated only when both the arena's pool and the store are empty,
//    so the store never holds more buffers than the live arenas held at
//    the process's peak, and each arena keeps at most kLocalCap (8)
//    buffers per kind.
//
// Pool misses and buffer growth are counted under wall-clock-tagged
// `grid.alloc.*` counters (they depend on thread count and pool
// history); lease acquisitions are deterministic per workload and
// counted under `mlat.scratch.*`. Every lease factory accepts a null
// arena and then degrades to a plain per-call allocation — the oracle
// configuration equivalence tests compare against.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "grid/field.hpp"
#include "grid/region.hpp"

namespace ageo::grid {

struct ScratchStore;

class Scratch {
 public:
  using Words = std::vector<std::uint64_t>;
  using Indices = std::vector<std::uint32_t>;
  using Doubles = std::vector<double>;

 private:
  /// A pooled buffer, plus the element ranges its last tenant promised
  /// to confine its writes to (word buffers only; untracked means
  /// anything may be dirty).
  template <class T>
  struct Slot {
    T value;
    std::vector<std::pair<std::size_t, std::size_t>> dirty;
    bool tracked = false;
  };

 public:
  Scratch() = default;
  ~Scratch();
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  /// The calling thread's arena (created on first use, donated to the
  /// shared store at thread exit).
  static Scratch& tls();

  /// A buffer on loan from an arena (move-only); destruction returns it,
  /// with its capacity, to that arena. With a null arena it is a plain
  /// owned buffer that destruction frees.
  template <class T>
  class Lease {
   public:
    T& get() noexcept { return slot_.value; }
    const T& get() const noexcept { return slot_.value; }

    /// Word buffers: promise that every write of this tenancy falls
    /// inside some marked [begin, end) element range; the next acquire
    /// then clears only the marked ranges. Never calling mark_dirty
    /// means "anything may be dirty" and forces a full clear next time.
    void mark_dirty(std::size_t begin, std::size_t end)
      requires std::same_as<T, Words>
    {
      Scratch::note_dirty(slot_, begin, end);
    }

    Lease(Lease&& o) noexcept
        : owner_(std::exchange(o.owner_, nullptr)),
          slot_(std::move(o.slot_)),
          bytes_at_acquire_(o.bytes_at_acquire_) {}
    ~Lease() {
      if (owner_) owner_->give(*this);
    }

   private:
    friend class Scratch;
    Lease() = default;
    Scratch* owner_ = nullptr;
    Slot<T> slot_;
    std::size_t bytes_at_acquire_ = 0;
  };

  using WordsLease = Lease<Words>;
  using RegionLease = Lease<Region>;
  using FieldLease = Lease<Field>;
  using IndexLease = Lease<Indices>;
  using DoublesLease = Lease<Doubles>;

  /// `n` zeroed words (LCS coverage planes, mask collections).
  static WordsLease words(Scratch* arena, std::size_t n);
  /// Empty word buffer with warm capacity (append-mode tenants).
  static WordsLease word_buf(Scratch* arena);
  /// Empty region on `g`.
  static RegionLease region(Scratch* arena, const Grid& g);
  /// Uniform all-ones field on `g`; with `mask`, the masked start (one
  /// pass, see Field::rebind). The field uses `arena` for its own
  /// temporaries.
  static FieldLease field(Scratch* arena, const Grid& g,
                          const Region* mask = nullptr);
  /// A field in no particular state, for a caller that rebinds it
  /// before use (mlat::spotter_start): the same lease minus the reset
  /// pass.
  static FieldLease field(Scratch* arena);
  /// Empty index vector with warm capacity (band lists, sort
  /// permutations, credible-region orderings).
  static IndexLease indices(Scratch* arena);
  /// Empty double vector with warm capacity (the refinement ladder's
  /// per-constraint sort keys).
  static DoublesLease doubles(Scratch* arena);

  /// Process-wide allocation statistics, aggregated over every arena
  /// (live or retired) and the shared store.
  struct Stats {
    std::uint64_t buffers_allocated = 0;  ///< pool misses + growths
    std::uint64_t bytes_allocated = 0;    ///< cumulative
    std::uint64_t bytes_retained = 0;     ///< held by arenas + store now
    std::uint64_t high_water_bytes = 0;   ///< max of bytes_retained
  };
  static Stats aggregate() noexcept;

 private:
  friend struct ScratchStore;

  template <class T>
  using Pool = std::vector<Slot<T>>;
  using Pools = std::tuple<Pool<Words>, Pool<Region>, Pool<Field>,
                           Pool<Indices>, Pool<Doubles>>;

  /// A lease on a pooled (or, with a null arena, fresh) buffer, not yet
  /// reset to its handed-out state.
  template <class T>
  static Lease<T> acquire(Scratch* arena);
  template <class T>
  Slot<T> take();
  template <class T>
  void give(Lease<T>& lease);
  static void note_dirty(Slot<Words>& slot, std::size_t begin,
                         std::size_t end);

  Pools pools_;
};

}  // namespace ageo::grid
