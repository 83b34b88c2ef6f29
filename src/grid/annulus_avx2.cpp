// AVX2 twin of detail::annulus_fold_scalar. On x86-64 this is the only
// file compiled with -mavx2, plus -ffp-contract=off so the compiler cannot
// fuse the explicit mul/add pairs into FMAs: bit-identity with the scalar
// fold depends on every product and sum rounding individually, in the
// same order as Vec3::dot. It is reached only through annulus_fold after
// cpu_has_avx2(), so no AVX2 instruction runs on a CPU without it.
#include "grid/annulus_scan.hpp"

#if defined(__x86_64__)

#if !defined(__AVX2__)
#error "annulus_avx2.cpp must be compiled with -mavx2 (see src/grid/CMakeLists.txt)"
#endif

#include <immintrin.h>

namespace ageo::grid::detail {
namespace {

// Transpose 4 consecutive Vec3 (12 packed doubles x0 y0 z0 x1 y1 z1 ...)
// into X/Y/Z lane vectors.
inline void load_centers4(const geo::Vec3* c, __m256d& X, __m256d& Y,
                          __m256d& Z) {
  static_assert(sizeof(geo::Vec3) == 3 * sizeof(double));
  const double* p = reinterpret_cast<const double*>(c);
  const __m256d t0 = _mm256_loadu_pd(p);      // x0 y0 z0 x1
  const __m256d t1 = _mm256_loadu_pd(p + 4);  // y1 z1 x2 y2
  const __m256d t2 = _mm256_loadu_pd(p + 8);  // z2 x3 y3 z3
  const __m256d s0 = _mm256_permute2f128_pd(t0, t1, 0x30);  // x0 y0 | x2 y2
  const __m256d s1 = _mm256_permute2f128_pd(t0, t2, 0x21);  // z0 x1 | z2 x3
  const __m256d s2 = _mm256_permute2f128_pd(t1, t2, 0x30);  // y1 z1 | y3 z3
  X = _mm256_shuffle_pd(s0, s1, 0b1010);  // x0 x1 x2 x3
  Y = _mm256_shuffle_pd(s0, s2, 0b0101);  // y0 y1 y2 y3
  Z = _mm256_shuffle_pd(s1, s2, 0b1010);  // z0 z1 z2 z3
}

}  // namespace

template <AnnulusOp Op>
void annulus_fold_avx2(const geo::Vec3* centers, std::size_t begin,
                       std::size_t end, const geo::Vec3& v, double cos_outer,
                       double cos_inner, std::uint64_t* words) noexcept {
  if (begin >= end) return;
  const __m256d vx = _mm256_set1_pd(v.x);
  const __m256d vy = _mm256_set1_pd(v.y);
  const __m256d vz = _mm256_set1_pd(v.z);
  const __m256d lo1 = _mm256_set1_pd(-1.0);
  const __m256d hi1 = _mm256_set1_pd(1.0);
  const __m256d co = _mm256_set1_pd(cos_outer);
  const __m256d ci = _mm256_set1_pd(cos_inner);
  for (std::size_t wi = begin >> 6; wi <= (end - 1) >> 6; ++wi) {
    const std::size_t lo = std::max(begin, wi << 6);
    const std::size_t hi = std::min(end, (wi << 6) + 64);
    // Scalar head to a 4-cell boundary (lane k of a group lands at bit
    // (j & 63) + k, so groups must not straddle the word).
    std::size_t j = std::min(hi, (lo + 3) & ~std::size_t{3});
    std::uint64_t pass =
        annulus_pass_bits(centers, lo, j, v, cos_outer, cos_inner);
    for (; j + 4 <= hi; j += 4) {
      __m256d X, Y, Z;
      load_centers4(centers + j, X, Y, Z);
      // Same order as Vec3::dot: (x*vx + y*vy) + z*vz.
      const __m256d dot = _mm256_add_pd(
          _mm256_add_pd(_mm256_mul_pd(X, vx), _mm256_mul_pd(Y, vy)),
          _mm256_mul_pd(Z, vz));
      const __m256d cl = _mm256_min_pd(_mm256_max_pd(dot, lo1), hi1);
      const __m256d ok = _mm256_and_pd(_mm256_cmp_pd(cl, co, _CMP_GE_OQ),
                                       _mm256_cmp_pd(cl, ci, _CMP_LE_OQ));
      pass |= static_cast<std::uint64_t>(
                  static_cast<unsigned>(_mm256_movemask_pd(ok)))
              << (j & 63);
    }
    pass |= annulus_pass_bits(centers, j, hi, v, cos_outer, cos_inner);
    fold_word<Op>(words[wi], pass,
                  word_run_mask(static_cast<unsigned>(lo - (wi << 6)),
                                static_cast<unsigned>(hi - (wi << 6))));
  }
}

#else  // !__x86_64__

namespace ageo::grid::detail {

// Never called off x86-64 (cpu_has_avx2() is false); defined so the
// declaration links everywhere.
template <AnnulusOp Op>
void annulus_fold_avx2(const geo::Vec3* centers, std::size_t begin,
                       std::size_t end, const geo::Vec3& v, double cos_outer,
                       double cos_inner, std::uint64_t* words) noexcept {
  annulus_fold_scalar<Op>(centers, begin, end, v, cos_outer, cos_inner, words);
}

#endif

template void annulus_fold_avx2<AnnulusOp::kSet>(
    const geo::Vec3*, std::size_t, std::size_t, const geo::Vec3&, double,
    double, std::uint64_t*) noexcept;
template void annulus_fold_avx2<AnnulusOp::kIntersect>(
    const geo::Vec3*, std::size_t, std::size_t, const geo::Vec3&, double,
    double, std::uint64_t*) noexcept;

}  // namespace ageo::grid::detail
