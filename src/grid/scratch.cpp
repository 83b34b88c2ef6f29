#include "grid/scratch.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "obs/obs.hpp"

namespace ageo::grid {

namespace {

/// Buffers kept per arena pool; beyond this, released buffers are freed.
constexpr std::size_t kLocalCap = 8;
/// Buffers kept per type in the process-wide retired store; runtime-
/// adjustable (Scratch::set_store_capacity) so a long-lived service can
/// size the donation pool to its worker fan-out instead of the one-shot
/// audit default.
std::atomic<std::size_t> g_store_cap{Scratch::kDefaultStoreCapacity};

std::size_t store_cap() noexcept {
  return g_store_cap.load(std::memory_order_relaxed);
}
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

std::uint64_t word_buf_bytes(const std::vector<std::uint64_t>& b) noexcept {
  return b.capacity() * sizeof(std::uint64_t);
}

std::uint64_t index_bytes(const std::vector<std::uint32_t>& b) noexcept {
  return b.capacity() * sizeof(std::uint32_t);
}

std::uint64_t double_bytes(const std::vector<double>& b) noexcept {
  return b.capacity() * sizeof(double);
}

std::uint64_t region_bytes(const Region& r) noexcept {
  return r.words().capacity() * sizeof(std::uint64_t);
}

}  // namespace

// Process-wide store of buffers donated by dying arenas. The audit
// engine spawns fresh jthread workers per run, so each run's
// thread-local arenas are destroyed at run end; without the store every
// run would re-warm from cold. The store is leaked deliberately —
// thread_local arenas can be destroyed after static destructors run.
struct ScratchStore {
  std::mutex mu;
  std::vector<Scratch::WordBuf> words;
  std::vector<Region> regions;
  std::vector<Field> fields;
  std::vector<std::vector<std::uint32_t>> indices;
  std::vector<std::vector<double>> dbls;
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

void Scratch::set_store_capacity(std::size_t per_kind) noexcept {
  g_store_cap.store(per_kind, std::memory_order_relaxed);
}

std::size_t Scratch::store_capacity() noexcept { return store_cap(); }

Scratch::~Scratch() {
  ScratchStore& st = store();
  std::lock_guard<std::mutex> lock(st.mu);
  for (auto& wb : words_) {
    if (st.words.size() < store_cap()) {
      st.words.push_back(std::move(wb));
    } else {
      stats().on_release(word_buf_bytes(wb.buf));
    }
  }
  for (auto& r : regions_) {
    if (st.regions.size() < store_cap()) {
      st.regions.push_back(std::move(r));
    } else {
      stats().on_release(region_bytes(r));
    }
  }
  for (auto& f : fields_) {
    if (st.fields.size() < store_cap()) {
      st.fields.push_back(std::move(f));
    } else {
      stats().on_release(f.capacity_bytes());
    }
  }
  for (auto& ix : indices_) {
    if (st.indices.size() < store_cap()) {
      st.indices.push_back(std::move(ix));
    } else {
      stats().on_release(index_bytes(ix));
    }
  }
  for (auto& db : dbls_) {
    if (st.dbls.size() < store_cap()) {
      st.dbls.push_back(std::move(db));
    } else {
      stats().on_release(double_bytes(db));
    }
  }
}

// ---------------------------------------------------------------------------
// Word buffers

Scratch::WordBuf Scratch::take_word_buf(std::size_t min_size) {
  WordBuf wb;
  bool pooled = false;
  if (!words_.empty()) {
    wb = std::move(words_.back());
    words_.pop_back();
    pooled = true;
  } else {
    ScratchStore& st = store();
    std::lock_guard<std::mutex> lock(st.mu);
    if (!st.words.empty()) {
      wb = std::move(st.words.back());
      st.words.pop_back();
      pooled = true;
    }
  }
  if (pooled) stats().on_release(word_buf_bytes(wb.buf));

  const std::size_t old_size = wb.buf.size();
  const std::size_t old_cap_bytes = word_buf_bytes(wb.buf);
  if (wb.buf.size() != min_size) wb.buf.resize(min_size);
  const std::size_t new_cap_bytes = word_buf_bytes(wb.buf);
  if (new_cap_bytes > old_cap_bytes) {
    stats().on_alloc(new_cap_bytes - old_cap_bytes);
    AGEO_COUNT_WALL("grid.alloc.cover_buffers");
  }

  // Elements appended by the resize above are value-initialised (zero);
  // only [0, old_size) can hold a previous tenant's bits, and only where
  // that tenant recorded dirt.
  const std::size_t limit = std::min(old_size, min_size);
  if (limit > 0) {
    if (wb.dirty_all) {
      std::fill(wb.buf.begin(), wb.buf.begin() + limit, 0);
    } else {
      // Tenants mark one range per constraint and constraint bands
      // overlap heavily, so merge before clearing — otherwise the same
      // words are zeroed once per overlapping range and the clear cost
      // scales with the constraint count instead of the touched rows.
      std::sort(wb.dirty.begin(), wb.dirty.end());
      std::size_t run_b = 0, run_e = 0;
      for (const auto& [b, e] : wb.dirty) {
        const std::size_t lo = std::min(b, limit);
        const std::size_t hi = std::min(e, limit);
        if (lo >= hi) continue;
        if (lo > run_e) {
          std::fill(wb.buf.begin() + run_b, wb.buf.begin() + run_e, 0);
          run_b = lo;
          run_e = hi;
        } else {
          run_e = std::max(run_e, hi);
        }
      }
      std::fill(wb.buf.begin() + run_b, wb.buf.begin() + run_e, 0);
    }
  }
  wb.dirty.clear();
  wb.dirty_all = true;
  return wb;
}

void Scratch::give_word_buf(WordsLease& lease) {
  const std::size_t cap_bytes = word_buf_bytes(lease.buf_);
  if (cap_bytes > lease.bytes_at_acquire_) {
    stats().on_alloc(cap_bytes - lease.bytes_at_acquire_);
    AGEO_COUNT_WALL("grid.alloc.cover_buffers");
  }
  if (words_.size() >= kLocalCap) return;  // freed by the lease dtor
  WordBuf wb;
  wb.buf = std::move(lease.buf_);
  if (lease.tracked_) {
    wb.dirty = std::move(lease.dirty_);
    wb.dirty_all = false;
  } else {
    wb.dirty_all = true;
  }
  stats().on_retain(word_buf_bytes(wb.buf));
  words_.push_back(std::move(wb));
}

Scratch::WordsLease Scratch::words(Scratch* arena, std::size_t n) {
  AGEO_COUNT("mlat.scratch.words_acquires");
  WordsLease lease;
  if (arena) {
    WordBuf wb = arena->take_word_buf(n);
    lease.buf_ = std::move(wb.buf);
    lease.owner_ = arena;
  } else {
    lease.buf_.assign(n, 0);
  }
  lease.bytes_at_acquire_ = word_buf_bytes(lease.buf_);
  return lease;
}

Scratch::WordsLease Scratch::word_buf(Scratch* arena) {
  return words(arena, 0);
}

void Scratch::WordsLease::mark_dirty(std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  if (!tracked_) {
    tracked_ = true;
    dirty_.clear();
  }
  if (!dirty_.empty() && dirty_.size() >= kMaxDirtyRanges) {
    // Collapse to the envelope: coarser (so clears cost more) but still a
    // superset of every marked range, so correctness is unaffected.
    std::size_t lo = begin, hi = end;
    for (const auto& [b, e] : dirty_) {
      lo = std::min(lo, b);
      hi = std::max(hi, e);
    }
    dirty_.clear();
    dirty_.emplace_back(lo, hi);
    return;
  }
  dirty_.emplace_back(begin, end);
}

Scratch::WordsLease::WordsLease(WordsLease&& o) noexcept
    : owner_(o.owner_),
      buf_(std::move(o.buf_)),
      dirty_(std::move(o.dirty_)),
      tracked_(o.tracked_),
      bytes_at_acquire_(o.bytes_at_acquire_) {
  o.owner_ = nullptr;
}

Scratch::WordsLease::~WordsLease() {
  if (owner_) owner_->give_word_buf(*this);
}

// ---------------------------------------------------------------------------
// Regions

Region Scratch::take_region() {
  if (!regions_.empty()) {
    Region r = std::move(regions_.back());
    regions_.pop_back();
    stats().on_release(region_bytes(r));
    return r;
  }
  ScratchStore& st = store();
  std::lock_guard<std::mutex> lock(st.mu);
  if (!st.regions.empty()) {
    Region r = std::move(st.regions.back());
    st.regions.pop_back();
    stats().on_release(region_bytes(r));
    return r;
  }
  return Region();
}

void Scratch::give_region(RegionLease& lease) {
  const std::size_t cap_bytes = region_bytes(lease.region_);
  if (cap_bytes > lease.bytes_at_acquire_) {
    stats().on_alloc(cap_bytes - lease.bytes_at_acquire_);
    AGEO_COUNT_WALL("grid.alloc.region_buffers");
  }
  if (regions_.size() >= kLocalCap) return;
  stats().on_retain(cap_bytes);
  regions_.push_back(std::move(lease.region_));
}

Scratch::RegionLease Scratch::region(Scratch* arena, const Grid& g) {
  AGEO_COUNT("mlat.scratch.region_acquires");
  RegionLease lease;
  if (arena) {
    lease.region_ = arena->take_region();
    lease.owner_ = arena;
  }
  lease.bytes_at_acquire_ = region_bytes(lease.region_);
  lease.region_.rebind(g);
  // rebind() zero-assigns; growth beyond the pooled capacity is detected
  // and counted at release, not here, so the two paths share one site.
  return lease;
}

Scratch::RegionLease::RegionLease(RegionLease&& o) noexcept
    : owner_(o.owner_),
      region_(std::move(o.region_)),
      bytes_at_acquire_(o.bytes_at_acquire_) {
  o.owner_ = nullptr;
}

Scratch::RegionLease::~RegionLease() {
  if (owner_) owner_->give_region(*this);
}

// ---------------------------------------------------------------------------
// Fields

Field Scratch::take_field() {
  if (!fields_.empty()) {
    Field f = std::move(fields_.back());
    fields_.pop_back();
    stats().on_release(f.capacity_bytes());
    return f;
  }
  ScratchStore& st = store();
  std::lock_guard<std::mutex> lock(st.mu);
  if (!st.fields.empty()) {
    Field f = std::move(st.fields.back());
    st.fields.pop_back();
    stats().on_release(f.capacity_bytes());
    return f;
  }
  return Field();
}

void Scratch::give_field(FieldLease& lease) {
  lease.field_.set_scratch(nullptr);
  const std::size_t cap_bytes = lease.field_.capacity_bytes();
  if (cap_bytes > lease.bytes_at_acquire_) {
    stats().on_alloc(cap_bytes - lease.bytes_at_acquire_);
    AGEO_COUNT_WALL("grid.alloc.field_buffers");
  }
  if (fields_.size() >= kLocalCap) return;
  stats().on_retain(cap_bytes);
  fields_.push_back(std::move(lease.field_));
}

Scratch::FieldLease Scratch::field(Scratch* arena, const Grid& g,
                                   const Region* mask) {
  AGEO_COUNT("mlat.scratch.field_acquires");
  FieldLease lease;
  if (arena) {
    lease.field_ = arena->take_field();
    lease.owner_ = arena;
    lease.bytes_at_acquire_ = lease.field_.capacity_bytes();
    lease.field_.rebind(g, mask);
    lease.field_.set_scratch(arena);
  } else {
    lease.field_.rebind(g, mask);
    lease.bytes_at_acquire_ = lease.field_.capacity_bytes();
  }
  return lease;
}

Scratch::FieldLease::FieldLease(FieldLease&& o) noexcept
    : owner_(o.owner_),
      field_(std::move(o.field_)),
      bytes_at_acquire_(o.bytes_at_acquire_) {
  o.owner_ = nullptr;
}

Scratch::FieldLease::~FieldLease() {
  if (owner_) owner_->give_field(*this);
}

// ---------------------------------------------------------------------------
// Index vectors

std::vector<std::uint32_t> Scratch::take_indices() {
  if (!indices_.empty()) {
    std::vector<std::uint32_t> v = std::move(indices_.back());
    indices_.pop_back();
    stats().on_release(index_bytes(v));
    return v;
  }
  ScratchStore& st = store();
  std::lock_guard<std::mutex> lock(st.mu);
  if (!st.indices.empty()) {
    std::vector<std::uint32_t> v = std::move(st.indices.back());
    st.indices.pop_back();
    stats().on_release(index_bytes(v));
    return v;
  }
  return {};
}

void Scratch::give_indices(IndexLease& lease) {
  const std::size_t cap_bytes = index_bytes(lease.buf_);
  if (cap_bytes > lease.bytes_at_acquire_) {
    stats().on_alloc(cap_bytes - lease.bytes_at_acquire_);
    AGEO_COUNT_WALL("grid.alloc.index_buffers");
  }
  if (indices_.size() >= kLocalCap) return;
  stats().on_retain(cap_bytes);
  lease.buf_.clear();
  indices_.push_back(std::move(lease.buf_));
}

Scratch::IndexLease Scratch::indices(Scratch* arena) {
  AGEO_COUNT("mlat.scratch.index_acquires");
  IndexLease lease;
  if (arena) {
    lease.buf_ = arena->take_indices();
    lease.buf_.clear();
    lease.owner_ = arena;
  }
  lease.bytes_at_acquire_ = index_bytes(lease.buf_);
  return lease;
}

Scratch::IndexLease::IndexLease(IndexLease&& o) noexcept
    : owner_(o.owner_),
      buf_(std::move(o.buf_)),
      bytes_at_acquire_(o.bytes_at_acquire_) {
  o.owner_ = nullptr;
}

Scratch::IndexLease::~IndexLease() {
  if (owner_) owner_->give_indices(*this);
}

// ---------------------------------------------------------------------------
// Double vectors (refinement sort keys)

std::vector<double> Scratch::take_doubles() {
  if (!dbls_.empty()) {
    std::vector<double> v = std::move(dbls_.back());
    dbls_.pop_back();
    stats().on_release(double_bytes(v));
    return v;
  }
  ScratchStore& st = store();
  std::lock_guard<std::mutex> lock(st.mu);
  if (!st.dbls.empty()) {
    std::vector<double> v = std::move(st.dbls.back());
    st.dbls.pop_back();
    stats().on_release(double_bytes(v));
    return v;
  }
  return {};
}

void Scratch::give_doubles(DoublesLease& lease) {
  const std::size_t cap_bytes = double_bytes(lease.buf_);
  if (cap_bytes > lease.bytes_at_acquire_) {
    stats().on_alloc(cap_bytes - lease.bytes_at_acquire_);
    AGEO_COUNT_WALL("grid.alloc.double_buffers");
  }
  if (dbls_.size() >= kLocalCap) return;
  stats().on_retain(cap_bytes);
  lease.buf_.clear();
  dbls_.push_back(std::move(lease.buf_));
}

Scratch::DoublesLease Scratch::doubles(Scratch* arena) {
  AGEO_COUNT("mlat.scratch.double_acquires");
  DoublesLease lease;
  if (arena) {
    lease.buf_ = arena->take_doubles();
    lease.buf_.clear();
    lease.owner_ = arena;
  }
  lease.bytes_at_acquire_ = double_bytes(lease.buf_);
  return lease;
}

Scratch::DoublesLease::DoublesLease(DoublesLease&& o) noexcept
    : owner_(o.owner_),
      buf_(std::move(o.buf_)),
      bytes_at_acquire_(o.bytes_at_acquire_) {
  o.owner_ = nullptr;
}

Scratch::DoublesLease::~DoublesLease() {
  if (owner_) owner_->give_doubles(*this);
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
