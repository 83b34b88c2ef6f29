#include "grid/window.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "grid/scratch.hpp"

namespace ageo::grid {

Window full_window(const Grid& g) noexcept {
  return Window{0, g.rows(), 0, g.cols()};
}

std::optional<Window> bounding_window(const Region& region, Scratch* scratch) {
  ageo::detail::require(region.grid() != nullptr,
                        "bounding_window: region not attached to a grid");
  const Grid& g = *region.grid();
  const std::size_t cols = g.cols();

  // One pass over the set cells: exact row band plus the set of occupied
  // columns. Regions this runs on are coarse-level survivors, so the
  // cell count is small; the column list is pooled to keep the refined
  // audit loop allocation-free in steady state.
  Scratch::IndexLease occ_lease = Scratch::indices(scratch);
  std::vector<std::uint32_t>& occ = occ_lease.get();
  occ.assign((cols + 63) / 64 * 2, 0);  // occupancy bitmap as u32 pairs
  auto* occ_words = occ.data();
  const auto occ_set = [&](std::size_t c) {
    occ_words[(c >> 5)] |= 1u << (c & 31);
  };
  const auto occ_test = [&](std::size_t c) {
    return (occ_words[(c >> 5)] >> (c & 31)) & 1u;
  };

  std::size_t rmin = g.rows(), rmax = 0;
  bool any = false;
  region.for_each_cell([&](std::size_t idx) {
    const std::size_t r = g.row_of(idx);
    if (!any || r < rmin) rmin = r;
    if (!any || r >= rmax) rmax = r + 1;
    any = true;
    occ_set(g.col_of(idx));
  });
  if (!any) return std::nullopt;

  // Shortest circular interval covering the occupied columns = the
  // complement of the largest circular run of empty columns. Walk the
  // columns once, tracking zero-runs; the run wrapping the seam is the
  // leading run joined with the trailing one.
  std::size_t best_len = 0, best_end = 0;  // best gap: [end-len, end)
  std::size_t lead_len = 0;                // empty prefix length
  bool in_lead = true;
  std::size_t run = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    if (!occ_test(c)) {
      ++run;
      if (in_lead) ++lead_len;
      continue;
    }
    in_lead = false;
    if (run > best_len) {
      best_len = run;
      best_end = c;
    }
    run = 0;
  }
  if (lead_len == cols) return std::nullopt;  // unreachable: any == true
  // Trailing run wraps around to the leading one.
  if (run + lead_len > best_len) {
    best_len = run + lead_len;
    best_end = lead_len;  // gap is [cols - run, cols) ++ [0, lead_len)
  }

  Window w;
  w.r0 = rmin;
  w.r1 = rmax;
  if (best_len == 0) {
    w.c0 = 0;
    w.width = cols;
  } else {
    w.c0 = best_end % cols;  // first column after the largest gap
    w.width = cols - best_len;
  }
  return w;
}

Window expand_window(const Window& w, const Grid& g, std::size_t margin) {
  if (w.empty()) return w;
  Window out;
  out.r0 = w.r0 > margin ? w.r0 - margin : 0;
  out.r1 = std::min(w.r1 + margin, g.rows());
  const std::size_t cols = g.cols();
  if (w.width + 2 * margin >= cols) {
    out.c0 = 0;
    out.width = cols;
  } else {
    // The guard above ensures margin < cols, so this cannot underflow.
    out.c0 = (w.c0 + cols - margin) % cols;
    out.width = w.width + 2 * margin;
  }
  return out;
}

Window map_window(const Window& w, const Grid& from, const Grid& to) {
  const double ratio = from.cell_deg() / to.cell_deg();
  const auto k = static_cast<std::size_t>(std::llround(ratio));
  ageo::detail::require(
      k >= 1 && std::abs(ratio - static_cast<double>(k)) < 1e-9,
      "map_window: coarse cell size must be an integer multiple of the "
      "fine one");
  Window out;
  out.r0 = std::min(w.r0 * k, to.rows());
  out.r1 = std::min(w.r1 * k, to.rows());
  if (w.width * k >= to.cols()) {
    out.c0 = 0;
    out.width = to.cols();
  } else {
    out.c0 = w.c0 * k;
    out.width = w.width * k;
  }
  return out;
}

void window_region_into(const Grid& g, const Window& w, const Region* mask,
                        Region& out) {
  ageo::detail::require(out.grid() == &g,
                        "window_region_into: region grid mismatch");
  if (mask)
    ageo::detail::require(mask->grid() == &g,
                          "window_region_into: mask grid mismatch");
  for (std::size_t r = w.r0; r < w.r1; ++r) {
    w.for_row_spans(
        g, r, [&](std::size_t b, std::size_t e) { out.set_span(b, e); });
  }
  // Banded AND: every set bit is inside the window's row band, so the
  // words outside it (all zero here) can skip the mask pass. On a
  // 0.25-degree grid this turns a 16k-word sweep into a window-sized
  // one, once per refined solve.
  if (mask)
    out.intersect_with_in(*mask, w.r0 * g.cols(), w.r1 * g.cols());
}

}  // namespace ageo::grid
