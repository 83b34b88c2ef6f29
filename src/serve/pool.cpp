#include "serve/pool.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace ageo::serve {

void VerdictRing::push(assess::Verdict v) {
  if (capacity_ == 0) return;
  if (slots_.empty()) slots_.resize(capacity_, 0);
  if (n_ < capacity_) {
    slots_[(head_ + n_) % capacity_] = static_cast<std::uint8_t>(v);
    ++n_;
  } else {
    slots_[head_] = static_cast<std::uint8_t>(v);
    head_ = (head_ + 1) % capacity_;
  }
}

assess::Verdict VerdictRing::at(std::size_t i) const noexcept {
  return static_cast<assess::Verdict>(slots_[(head_ + i) % capacity_]);
}

std::optional<assess::Verdict> VerdictRing::latest() const noexcept {
  if (n_ == 0) return std::nullopt;
  return at(n_ - 1);
}

ProxyEntry& ProxyPool::admit(std::size_t id, const world::ProxyHost& host,
                             std::size_t history_capacity) {
  if (entries_.size() <= id) entries_.resize(id + 1);
  ProxyEntry& e = entries_[id];
  detail::require(e.status == EntryStatus::kEmpty,
                  "ProxyPool::admit: id already admitted");
  e.id = id;
  e.host = host;
  e.status = EntryStatus::kAdmitted;
  e.history = VerdictRing(history_capacity);
  ++size_;
  AGEO_COUNT("serve.pool.admits");
  return e;
}

ProxyEntry* ProxyPool::find(std::size_t id) noexcept {
  if (id >= entries_.size()) return nullptr;
  ProxyEntry& e = entries_[id];
  return e.status == EntryStatus::kEmpty ? nullptr : &e;
}

const ProxyEntry* ProxyPool::find(std::size_t id) const noexcept {
  return const_cast<ProxyPool*>(this)->find(id);
}

std::vector<std::size_t> ProxyPool::rank(const SchedulerWeights& w,
                                         std::uint64_t epoch,
                                         std::size_t quota,
                                         bool include_admitted) const {
  AGEO_COUNT("serve.sched.ranks");
  struct Scored {
    double score;
    std::size_t id;
  };
  // Selection keeps the best `quota` in a min-on-top heap: the worst
  // retained candidate sits at slot 0 and is displaced by any strictly
  // better one. "Better" = higher score, lower id on ties, so the
  // result is a pure function of pool state — no hashing, no ordering
  // dependence on the scan order.
  auto worse = [](const Scored& a, const Scored& b) noexcept {
    if (a.score != b.score) return a.score < b.score;
    return a.id > b.id;
  };
  // Heap comparator: std::push_heap keeps the MAXIMUM under its ordering
  // at the front, so ordering candidates "better-first" (the reverse of
  // `worse`) is what puts the worst retained candidate on top where the
  // displacement test can pop it.
  auto heap_comp = [&worse](const Scored& a, const Scored& b) noexcept {
    return worse(b, a);
  };
  std::vector<Scored> heap;
  heap.reserve(quota);
  std::size_t scanned = 0;
  for (const ProxyEntry& e : entries_) {
    if (e.status == EntryStatus::kEmpty || e.status == EntryStatus::kRetired)
      continue;
    if (e.status == EntryStatus::kAdmitted && !include_admitted) continue;
    ++scanned;
    const double stale = static_cast<double>(
        static_cast<std::int64_t>(epoch) - e.last_solve_epoch);
    if (stale <= 0.0) continue;  // already solved this epoch
    const Scored s{w.of(e.history.latest()) * stale, e.id};
    if (heap.size() < quota) {
      heap.push_back(s);
      std::push_heap(heap.begin(), heap.end(), heap_comp);
    } else if (!heap.empty() && worse(heap.front(), s)) {
      std::pop_heap(heap.begin(), heap.end(), heap_comp);
      heap.back() = s;
      std::push_heap(heap.begin(), heap.end(), heap_comp);
    }
  }
  AGEO_COUNTER_ADD("serve.sched.scanned", scanned);
  std::sort(heap.begin(), heap.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  std::vector<std::size_t> out;
  out.reserve(heap.size());
  for (const Scored& s : heap) out.push_back(s.id);
  return out;
}

}  // namespace ageo::serve
