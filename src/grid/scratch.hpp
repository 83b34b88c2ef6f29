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
//  * When a thread exits, its arena donates its buffers to a bounded
//    process-wide store; new arenas (e.g. next run's workers) adopt
//    from it before allocating, so even short-lived audit workers reach
//    steady state after the first run.
//
// Pool misses and buffer growth are counted under wall-clock-tagged
// `grid.alloc.*` counters (they depend on thread count and pool
// history); lease acquisitions are deterministic per workload and
// counted under `mlat.scratch.*`. Every lease factory accepts a null
// arena and then degrades to a plain per-call allocation — the oracle
// configuration equivalence tests compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "grid/field.hpp"
#include "grid/region.hpp"

namespace ageo::grid {

struct ScratchStore;

class Scratch {
 public:
  Scratch() = default;
  ~Scratch();
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  /// The calling thread's arena (created on first use, donated to the
  /// shared store at thread exit).
  static Scratch& tls();

  /// Pooled word buffer (LCS coverage planes, mask collections) with
  /// dirty-range tracking.
  class WordsLease {
   public:
    std::vector<std::uint64_t>& vec() noexcept { return buf_; }
    /// Promise that every write of this tenancy falls inside some marked
    /// [begin, end) element range; the next acquire then clears only the
    /// marked ranges. Never calling mark_dirty means "anything may be
    /// dirty" and forces a full clear next time.
    void mark_dirty(std::size_t begin, std::size_t end);

    WordsLease(WordsLease&&) noexcept;
    WordsLease& operator=(WordsLease&&) = delete;
    WordsLease(const WordsLease&) = delete;
    ~WordsLease();

   private:
    friend class Scratch;
    WordsLease() = default;
    Scratch* owner_ = nullptr;
    std::vector<std::uint64_t> buf_;
    std::vector<std::pair<std::size_t, std::size_t>> dirty_;
    bool tracked_ = false;
    std::size_t bytes_at_acquire_ = 0;
  };

  /// Pooled Region, handed out empty (all zero) on `g`.
  class RegionLease {
   public:
    Region& ref() noexcept { return region_; }

    RegionLease(RegionLease&&) noexcept;
    RegionLease& operator=(RegionLease&&) = delete;
    RegionLease(const RegionLease&) = delete;
    ~RegionLease();

   private:
    friend class Scratch;
    RegionLease() = default;
    Scratch* owner_ = nullptr;
    Region region_;
    std::size_t bytes_at_acquire_ = 0;
  };

  /// Pooled Field, handed out uniform (all ones) on `g`, or as the
  /// masked start when a mask is given (Field::rebind).
  class FieldLease {
   public:
    Field& ref() noexcept { return field_; }

    FieldLease(FieldLease&&) noexcept;
    FieldLease& operator=(FieldLease&&) = delete;
    FieldLease(const FieldLease&) = delete;
    ~FieldLease();

   private:
    friend class Scratch;
    FieldLease() = default;
    Scratch* owner_ = nullptr;
    Field field_;
    std::size_t bytes_at_acquire_ = 0;
  };

  /// Pooled uint32 vector, handed out empty with warm capacity (band
  /// lists, sort permutations, credible-region orderings).
  class IndexLease {
   public:
    std::vector<std::uint32_t>& vec() noexcept { return buf_; }
    const std::vector<std::uint32_t>& vec() const noexcept { return buf_; }

    IndexLease(IndexLease&&) noexcept;
    IndexLease& operator=(IndexLease&&) = delete;
    IndexLease(const IndexLease&) = delete;
    ~IndexLease();

   private:
    friend class Scratch;
    IndexLease() = default;
    Scratch* owner_ = nullptr;
    std::vector<std::uint32_t> buf_;
    std::size_t bytes_at_acquire_ = 0;
  };

  /// Pooled double vector, handed out empty with warm capacity (the
  /// refinement driver's per-constraint sort keys).
  class DoublesLease {
   public:
    std::vector<double>& vec() noexcept { return buf_; }
    const std::vector<double>& vec() const noexcept { return buf_; }

    DoublesLease(DoublesLease&&) noexcept;
    DoublesLease& operator=(DoublesLease&&) = delete;
    DoublesLease(const DoublesLease&) = delete;
    ~DoublesLease();

   private:
    friend class Scratch;
    DoublesLease() = default;
    Scratch* owner_ = nullptr;
    std::vector<double> buf_;
    std::size_t bytes_at_acquire_ = 0;
  };

  /// `n` zeroed words. A null arena yields a plain owned buffer.
  static WordsLease words(Scratch* arena, std::size_t n);
  /// Empty word buffer with warm capacity (append-mode tenants).
  static WordsLease word_buf(Scratch* arena);
  /// Empty region on `g`.
  static RegionLease region(Scratch* arena, const Grid& g);
  /// Uniform all-ones field on `g`; with `mask`, the masked start (one
  /// pass, see Field::rebind).
  static FieldLease field(Scratch* arena, const Grid& g,
                          const Region* mask = nullptr);
  /// Empty index vector.
  static IndexLease indices(Scratch* arena);
  /// Empty double vector.
  static DoublesLease doubles(Scratch* arena);

  /// Default per-kind capacity of the process-wide donation store —
  /// sized for the one-shot audit's worker fan-out.
  static constexpr std::size_t kDefaultStoreCapacity = 32;

  /// Resize the donation store's per-kind capacity. A long-lived
  /// service (src/serve) calls this at startup with a value derived
  /// from its worker count and pool shard geometry, so every round's
  /// short-lived workers re-adopt warm grid buffers instead of paying
  /// cold allocations once the default 32 slots overflow. Applies to
  /// future donations; already-stored buffers are never evicted by a
  /// shrink. Thread-safe.
  static void set_store_capacity(std::size_t per_kind) noexcept;
  static std::size_t store_capacity() noexcept;

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

  struct WordBuf {
    std::vector<std::uint64_t> buf;
    std::vector<std::pair<std::size_t, std::size_t>> dirty;
    bool dirty_all = true;
  };

  WordBuf take_word_buf(std::size_t min_size);
  void give_word_buf(WordsLease& lease);
  Region take_region();
  void give_region(RegionLease& lease);
  Field take_field();
  void give_field(FieldLease& lease);
  std::vector<std::uint32_t> take_indices();
  void give_indices(IndexLease& lease);
  std::vector<double> take_doubles();
  void give_doubles(DoublesLease& lease);

  std::vector<WordBuf> words_;
  std::vector<Region> regions_;
  std::vector<Field> fields_;
  std::vector<std::vector<std::uint32_t>> indices_;
  std::vector<std::vector<double>> dbls_;
};

}  // namespace ageo::grid
