// Hot-loop kernels of the compiled execution image: the contiguous gathers
// carry `#pragma omp simd` (GCC/Clang builds add -fopenmp-simd, which honors
// the pragma without any OpenMP runtime) and the per-group accumulation
// loops are 4-wide unrolled.
//
// Bit-identity contract: the group kernels accumulate the four products of
// an unrolled step in strict entry order (acc += p0; acc += p1; ...), so the
// floating-point summation order is exactly the scalar loop's left-to-right
// order — SIMD applies to the independent multiplies and index loads, never
// to the reduction. Scatter loops (unique-destination copies, the fold's
// out[id] += accumulation) stay scalar on purpose: their destination indices
// come from schedule data we do not force to be duplicate-free, and a
// vectorized scatter with a repeated destination would drop updates.
#pragma once

#include <cstddef>

#include "util/types.hpp"

namespace fghp::exec::kern {

/// dst[i] = src[idx[i]] for i in [0, n). Pure gather into a contiguous
/// destination: iterations are independent, so the loop may vectorize.
inline void gather(double* dst, const double* src, const idx_t* idx,
                   std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = src[static_cast<std::size_t>(idx[i])];
}

/// One task group's dot product with baked constants: sum of
/// vals[e] * rhs[slots[e]] over entries [begin, end) — the SpMV CSR row.
/// Accumulation is strictly left-to-right in entry order (see file comment).
inline double row_dot(const double* vals, const idx_t* slots,
                      const double* rhs, idx_t begin, idx_t end) {
  double acc = 0.0;
  idx_t e = begin;
  for (; e + 4 <= end; e += 4) {
    const std::size_t u = static_cast<std::size_t>(e);
    // Independent multiplies (vectorizable); ordered adds (not).
    const double p0 = vals[u] * rhs[static_cast<std::size_t>(slots[u])];
    const double p1 = vals[u + 1] * rhs[static_cast<std::size_t>(slots[u + 1])];
    const double p2 = vals[u + 2] * rhs[static_cast<std::size_t>(slots[u + 2])];
    const double p3 = vals[u + 3] * rhs[static_cast<std::size_t>(slots[u + 3])];
    acc += p0;
    acc += p1;
    acc += p2;
    acc += p3;
  }
  for (; e < end; ++e)
    acc += vals[static_cast<std::size_t>(e)] *
           rhs[static_cast<std::size_t>(slots[static_cast<std::size_t>(e)])];
  return acc;
}

/// One task group's dot product with both factors gathered: sum of
/// lhs[lhsSlots[e]] * rhs[rhsSlots[e]] over entries [begin, end) — the
/// SpGEMM per-C-entry accumulation. Same ordered-reduction contract as
/// row_dot.
inline double pair_dot(const idx_t* lhsSlots, const double* lhs,
                       const idx_t* rhsSlots, const double* rhs, idx_t begin,
                       idx_t end) {
  double acc = 0.0;
  idx_t e = begin;
  for (; e + 4 <= end; e += 4) {
    const std::size_t u = static_cast<std::size_t>(e);
    const double p0 = lhs[static_cast<std::size_t>(lhsSlots[u])] *
                      rhs[static_cast<std::size_t>(rhsSlots[u])];
    const double p1 = lhs[static_cast<std::size_t>(lhsSlots[u + 1])] *
                      rhs[static_cast<std::size_t>(rhsSlots[u + 1])];
    const double p2 = lhs[static_cast<std::size_t>(lhsSlots[u + 2])] *
                      rhs[static_cast<std::size_t>(rhsSlots[u + 2])];
    const double p3 = lhs[static_cast<std::size_t>(lhsSlots[u + 3])] *
                      rhs[static_cast<std::size_t>(rhsSlots[u + 3])];
    acc += p0;
    acc += p1;
    acc += p2;
    acc += p3;
  }
  for (; e < end; ++e) {
    const std::size_t u = static_cast<std::size_t>(e);
    acc += lhs[static_cast<std::size_t>(lhsSlots[u])] *
           rhs[static_cast<std::size_t>(rhsSlots[u])];
  }
  return acc;
}

}  // namespace fghp::exec::kern
