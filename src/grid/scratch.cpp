#include "grid/scratch.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <mutex>

#include "obs/obs.hpp"

namespace ageo::grid {

namespace {

/// Buffers kept per kind in one arena's pool; beyond this, released
/// buffers are freed.
constexpr std::size_t kLocalCap = 8;
/// Dirty ranges tracked per word lease before collapsing to an envelope.
constexpr std::size_t kMaxDirtyRanges = 64;

struct GlobalStats {
  std::atomic<std::uint64_t> buffers_allocated{0};
  std::atomic<std::uint64_t> bytes_allocated{0};
  std::atomic<std::uint64_t> bytes_retained{0};
  std::atomic<std::uint64_t> high_water_bytes{0};

  void on_alloc(std::uint64_t bytes) noexcept {
    buffers_allocated.fetch_add(1, std::memory_order_relaxed);
    bytes_allocated.fetch_add(bytes, std::memory_order_relaxed);
  }
  void on_retain(std::uint64_t bytes) noexcept {
    std::uint64_t now =
        bytes_retained.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t hw = high_water_bytes.load(std::memory_order_relaxed);
    while (now > hw && !high_water_bytes.compare_exchange_weak(
                           hw, now, std::memory_order_relaxed)) {
    }
  }
  void on_release(std::uint64_t bytes) noexcept {
    bytes_retained.fetch_sub(bytes, std::memory_order_relaxed);
  }
};

GlobalStats& stats() {
  static GlobalStats s;
  return s;
}

// What each kind supplies beyond its reset step (in its factory): its
// byte size and the wall-clock counter its growth is counted under.

template <class E>
std::uint64_t bytes_of(const std::vector<E>& v) noexcept {
  return v.capacity() * sizeof(E);
}
std::uint64_t bytes_of(const Region& r) noexcept { return bytes_of(r.words()); }
std::uint64_t bytes_of(const Field& f) noexcept { return f.capacity_bytes(); }

template <class T>
constexpr const char* kAllocCounter = nullptr;
template <>
constexpr const char* kAllocCounter<Scratch::Words> = "grid.alloc.cover_buffers";
template <>
constexpr const char* kAllocCounter<Region> = "grid.alloc.region_buffers";
template <>
constexpr const char* kAllocCounter<Field> = "grid.alloc.field_buffers";
template <>
constexpr const char* kAllocCounter<Scratch::Indices> =
    "grid.alloc.index_buffers";
template <>
constexpr const char* kAllocCounter<Scratch::Doubles> =
    "grid.alloc.double_buffers";

}  // namespace

// Process-wide store of buffers donated by dying arenas. The audit
// engine spawns fresh jthread workers per run, so each run's
// thread-local arenas are destroyed at run end; without the store every
// run would re-warm from cold. The store is leaked deliberately —
// thread_local arenas can be destroyed after static destructors run.
struct ScratchStore {
  std::mutex mu;
  Scratch::Pools pools;
};

namespace {

ScratchStore& store() {
  static ScratchStore* s = new ScratchStore;
  return *s;
}

}  // namespace

Scratch& Scratch::tls() {
  thread_local Scratch arena;
  return arena;
}

Scratch::~Scratch() {
  ScratchStore& st = store();
  std::lock_guard<std::mutex> lock(st.mu);
  const auto donate = [&]<class T>(Pool<T>& mine) {
    Pool<T>& theirs = std::get<Pool<T>>(st.pools);
    theirs.insert(theirs.end(), std::make_move_iterator(mine.begin()),
                  std::make_move_iterator(mine.end()));
  };
  std::apply([&](auto&... mine) { (donate(mine), ...); }, pools_);
}

// ---------------------------------------------------------------------------
// The one pooling path

template <class T>
Scratch::Slot<T> Scratch::take() {
  Pool<T>* from = &std::get<Pool<T>>(pools_);
  std::unique_lock<std::mutex> lock;
  if (from->empty()) {
    ScratchStore& st = store();
    lock = std::unique_lock<std::mutex>(st.mu);
    from = &std::get<Pool<T>>(st.pools);
  }
  Slot<T> slot;
  if (!from->empty()) {
    slot = std::move(from->back());
    from->pop_back();
    stats().on_release(bytes_of(slot.value));
  }
  return slot;
}

template <class T>
void Scratch::give(Lease<T>& lease) {
  // Growth during the tenancy, the reset step included, is counted here,
  // so every kind has one counter site.
  const std::size_t cap_bytes = bytes_of(lease.slot_.value);
  if (cap_bytes > lease.bytes_at_acquire_) {
    stats().on_alloc(cap_bytes - lease.bytes_at_acquire_);
    AGEO_COUNT_WALL(kAllocCounter<T>);
  }
  Pool<T>& mine = std::get<Pool<T>>(pools_);
  if (mine.size() >= kLocalCap) return;  // freed by the lease dtor
  stats().on_retain(cap_bytes);
  mine.push_back(std::move(lease.slot_));
}

template void Scratch::give(Lease<Words>&);
template void Scratch::give(Lease<Region>&);
template void Scratch::give(Lease<Field>&);
template void Scratch::give(Lease<Indices>&);
template void Scratch::give(Lease<Doubles>&);

template <class T>
Scratch::Lease<T> Scratch::acquire(Scratch* arena) {
  Lease<T> lease;
  if (arena) {
    lease.slot_ = arena->take<T>();
    lease.owner_ = arena;
  }
  lease.bytes_at_acquire_ = bytes_of(lease.slot_.value);
  return lease;
}

// ---------------------------------------------------------------------------
// Factories: each resets its kind to the handed-out state

Scratch::WordsLease Scratch::words(Scratch* arena, std::size_t n) {
  AGEO_COUNT("mlat.scratch.words_acquires");
  WordsLease lease = acquire<Words>(arena);
  Slot<Words>& s = lease.slot_;
  // Elements appended by the resize below are value-initialised (zero);
  // only [0, old size) can hold a previous tenant's bits, and only where
  // that tenant recorded dirt.
  const std::size_t limit = std::min(s.value.size(), n);
  if (!s.tracked) {
    std::fill(s.value.begin(), s.value.begin() + limit, 0);
  } else {
    // Tenants mark one range per constraint and constraint bands
    // overlap heavily, so merge before clearing — otherwise the same
    // words are zeroed once per overlapping range and the clear cost
    // scales with the constraint count instead of the touched rows.
    std::sort(s.dirty.begin(), s.dirty.end());
    std::size_t run_b = 0, run_e = 0;
    for (const auto& [b, e] : s.dirty) {
      const std::size_t lo = std::min(b, limit);
      const std::size_t hi = std::min(e, limit);
      if (lo >= hi) continue;
      if (lo > run_e) {
        std::fill(s.value.begin() + run_b, s.value.begin() + run_e, 0);
        run_b = lo;
        run_e = hi;
      } else {
        run_e = std::max(run_e, hi);
      }
    }
    std::fill(s.value.begin() + run_b, s.value.begin() + run_e, 0);
  }
  s.value.resize(n);
  s.dirty.clear();
  s.tracked = false;
  return lease;
}

Scratch::WordsLease Scratch::word_buf(Scratch* arena) {
  return words(arena, 0);
}

void Scratch::note_dirty(Slot<Words>& slot, std::size_t begin,
                         std::size_t end) {
  if (begin >= end) return;
  slot.tracked = true;
  if (slot.dirty.size() >= kMaxDirtyRanges) {
    // Collapse to the envelope: coarser (so clears cost more) but still a
    // superset of every marked range, so correctness is unaffected.
    std::size_t lo = begin, hi = end;
    for (const auto& [b, e] : slot.dirty) {
      lo = std::min(lo, b);
      hi = std::max(hi, e);
    }
    slot.dirty.clear();
    slot.dirty.emplace_back(lo, hi);
    return;
  }
  slot.dirty.emplace_back(begin, end);
}

Scratch::RegionLease Scratch::region(Scratch* arena, const Grid& g) {
  AGEO_COUNT("mlat.scratch.region_acquires");
  RegionLease lease = acquire<Region>(arena);
  lease.get().rebind(g);
  return lease;
}

Scratch::FieldLease Scratch::field(Scratch* arena, const Grid& g,
                                   const Region* mask) {
  FieldLease lease = field(arena);
  lease.get().rebind(g, mask);
  return lease;
}

Scratch::FieldLease Scratch::field(Scratch* arena) {
  AGEO_COUNT("mlat.scratch.field_acquires");
  FieldLease lease = acquire<Field>(arena);
  lease.get().set_scratch(arena);
  return lease;
}

Scratch::IndexLease Scratch::indices(Scratch* arena) {
  AGEO_COUNT("mlat.scratch.index_acquires");
  IndexLease lease = acquire<Indices>(arena);
  lease.get().clear();
  return lease;
}

Scratch::DoublesLease Scratch::doubles(Scratch* arena) {
  AGEO_COUNT("mlat.scratch.double_acquires");
  DoublesLease lease = acquire<Doubles>(arena);
  lease.get().clear();
  return lease;
}

// ---------------------------------------------------------------------------

Scratch::Stats Scratch::aggregate() noexcept {
  const GlobalStats& s = stats();
  Stats out;
  out.buffers_allocated = s.buffers_allocated.load(std::memory_order_relaxed);
  out.bytes_allocated = s.bytes_allocated.load(std::memory_order_relaxed);
  out.bytes_retained = s.bytes_retained.load(std::memory_order_relaxed);
  out.high_water_bytes = s.high_water_bytes.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ageo::grid
