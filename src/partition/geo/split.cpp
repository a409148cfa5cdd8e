#include "partition/geo/split.hpp"

#include <algorithm>

#include "util/cancel.hpp"

namespace fghp::part::geo {

namespace {

/// Buckets swept between cancel check-points: one clock read per 256
/// coordinate lines keeps the mid-split deadline responsive without making
/// the sweep clock-bound.
constexpr idx_t kCheckStride = 256;

/// Estimated cut of splitting the points at the weighted median of
/// axis A (rows when byRow): the number of B-axis lines whose A-span
/// straddles the median boundary, plus one when the median falls mid-line.
/// This is what makes the axis choice structure-aware — on a banded matrix
/// the straddle count at a row boundary is ~bandwidth while a column split
/// of a row slab would cut every row in it, so "longer axis" alone picks
/// catastrophically. O(z + extents); exact up to the partial median line.
weight_t axis_cut_estimate(const GeoPoints& pts, bool byRow, idx_t minA, idx_t maxA,
                           idx_t minB, idx_t maxB, weight_t t0) {
  const idx_t extA = maxA - minA + 1;
  const idx_t extB = maxB - minB + 1;
  std::vector<weight_t> wA(static_cast<std::size_t>(extA), 0);
  std::vector<idx_t> bLo(static_cast<std::size_t>(extB), extA);
  std::vector<idx_t> bHi(static_cast<std::size_t>(extB), -1);
  for (idx_t v = 0; v < pts.num_vertices(); ++v) {
    const idx_t a = (byRow ? pts.row : pts.col)[static_cast<std::size_t>(v)] - minA;
    const idx_t b = (byRow ? pts.col : pts.row)[static_cast<std::size_t>(v)] - minB;
    wA[static_cast<std::size_t>(a)] += pts.wgt[static_cast<std::size_t>(v)];
    bLo[static_cast<std::size_t>(b)] = std::min(bLo[static_cast<std::size_t>(b)], a);
    bHi[static_cast<std::size_t>(b)] = std::max(bHi[static_cast<std::size_t>(b)], a);
  }
  // Weighted-median line t: lines < t go whole to side 0, line t may split.
  idx_t t = extA;
  bool midSplit = false;
  weight_t cum = 0;
  for (idx_t a = 0; a < extA; ++a) {
    const weight_t next = cum + wA[static_cast<std::size_t>(a)];
    if (next >= t0) {
      t = a;
      midSplit = cum < t0 && next > t0;
      break;
    }
    cum = next;
  }
  if (t >= extA) return 0;  // everything fits on side 0: no split, no cut
  weight_t cut = midSplit ? 1 : 0;
  for (idx_t b = 0; b < extB; ++b) {
    if (bLo[static_cast<std::size_t>(b)] < t && bHi[static_cast<std::size_t>(b)] >= t) ++cut;
  }
  return cut;
}

}  // namespace

GeoPartition median_split(const GeoPoints& pts, const std::array<weight_t, 2>& target,
                          const std::array<weight_t, 2>& cap, const PartitionConfig& cfg,
                          Rng& rng) {
  (void)cap;  // feasibility is judged by the engine; the split aims at target
  (void)rng;  // deterministic split; the stream exists for the retry contract
  const idx_t z = pts.num_vertices();
  std::vector<idx_t> side(static_cast<std::size_t>(z), kInvalidIdx);
  if (z == 0) return GeoPartition(pts, 2, std::move(side));

  idx_t minR = pts.numRows, maxR = -1, minC = pts.numCols, maxC = -1;
  for (idx_t v = 0; v < z; ++v) {
    minR = std::min(minR, pts.row[static_cast<std::size_t>(v)]);
    maxR = std::max(maxR, pts.row[static_cast<std::size_t>(v)]);
    minC = std::min(minC, pts.col[static_cast<std::size_t>(v)]);
    maxC = std::max(maxC, pts.col[static_cast<std::size_t>(v)]);
  }
  const weight_t t0 = std::max<weight_t>(0, target[0]);
  const weight_t cutRow = axis_cut_estimate(pts, /*byRow=*/true, minR, maxR, minC, maxC, t0);
  const weight_t cutCol = axis_cut_estimate(pts, /*byRow=*/false, minC, maxC, minR, maxR, t0);
  // Smaller estimated cut wins; ties go to the longer extent, then to rows —
  // a pure function of the points, so the choice is deterministic.
  bool byRow;
  if (cutRow != cutCol) {
    byRow = cutRow < cutCol;
  } else {
    byRow = maxR - minR >= maxC - minC;
  }
  const std::vector<idx_t>& coord = byRow ? pts.row : pts.col;
  const idx_t base = byRow ? minR : minC;
  const idx_t buckets = (byRow ? maxR - minR : maxC - minC) + 1;

  // Counting sort of the points by coordinate (stable: within a line,
  // index order), so the side-0 prefix below is a contiguous coordinate
  // range and the cut crosses at most one line.
  std::vector<idx_t> offset(static_cast<std::size_t>(buckets) + 1, 0);
  for (idx_t v = 0; v < z; ++v)
    ++offset[static_cast<std::size_t>(coord[static_cast<std::size_t>(v)] - base) + 1];
  for (idx_t b = 0; b < buckets; ++b)
    offset[static_cast<std::size_t>(b) + 1] += offset[static_cast<std::size_t>(b)];
  std::vector<idx_t> order(static_cast<std::size_t>(z));
  {
    std::vector<idx_t> cursor(offset.begin(), offset.end() - 1);
    for (idx_t v = 0; v < z; ++v)
      order[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(coord[static_cast<std::size_t>(v)] - base)]++)] = v;
  }

  // Weighted-median sweep: fill side 0 up to its target, then everything
  // else is side 1. With unit weights the prefix hits the target exactly. A
  // cancel check-point every kCheckStride lines makes the split itself
  // interruptible; an expired deadline throws here and the engine's
  // recovery ladder degrades this node to the greedy split.
  weight_t acc = 0;
  bool open0 = true;
  for (idx_t b = 0; b < buckets; ++b) {
    if (b % kCheckStride == 0)
      cancel::check_point(cfg.cancel, "geo.split", nullptr, b + 1, /*deadlineThrows=*/true);
    for (idx_t i = offset[static_cast<std::size_t>(b)];
         i < offset[static_cast<std::size_t>(b) + 1]; ++i) {
      const idx_t v = order[static_cast<std::size_t>(i)];
      const weight_t w = pts.wgt[static_cast<std::size_t>(v)];
      if (open0 && acc + w <= t0) {
        side[static_cast<std::size_t>(v)] = 0;
        acc += w;
      } else {
        open0 = false;
        side[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  return GeoPartition(pts, 2, std::move(side));
}

GeoPartition greedy_split(const GeoPoints& pts, const std::array<weight_t, 2>& target) {
  const idx_t z = pts.num_vertices();
  std::vector<idx_t> side(static_cast<std::size_t>(z), kInvalidIdx);
  std::array<weight_t, 2> acc = {0, 0};
  for (idx_t v = 0; v < z; ++v) {
    const idx_t s = target[0] - acc[0] >= target[1] - acc[1] ? 0 : 1;
    side[static_cast<std::size_t>(v)] = s;
    acc[static_cast<std::size_t>(s)] += pts.wgt[static_cast<std::size_t>(v)];
  }
  return GeoPartition(pts, 2, std::move(side));
}

weight_t split_cut(const GeoPoints& pts, const GeoPartition& bisection) {
  // 3-state marks per line: -1 = untouched, 0/1 = one side seen,
  // 2 = both sides seen (already counted).
  weight_t cut = 0;
  std::vector<signed char> rowSeen(static_cast<std::size_t>(pts.numRows), -1);
  std::vector<signed char> colSeen(static_cast<std::size_t>(pts.numCols), -1);
  auto touch = [&cut](signed char& mark, signed char s) {
    if (mark == -1) {
      mark = s;
    } else if (mark != s && mark != 2) {
      mark = 2;
      ++cut;
    }
  };
  for (idx_t v = 0; v < pts.num_vertices(); ++v) {
    const auto s = static_cast<signed char>(bisection.part_of(v));
    touch(rowSeen[static_cast<std::size_t>(pts.row[static_cast<std::size_t>(v)])], s);
    touch(colSeen[static_cast<std::size_t>(pts.col[static_cast<std::size_t>(v)])], s);
  }
  return cut;
}

GeoSideExtract extract_side(const GeoPoints& pts, const GeoPartition& bisection, idx_t side) {
  GeoSideExtract e;
  for (idx_t v = 0; v < pts.num_vertices(); ++v) {
    if (bisection.part_of(v) != side) continue;
    e.toParent.push_back(v);
    e.sub.row.push_back(pts.row[static_cast<std::size_t>(v)]);
    e.sub.col.push_back(pts.col[static_cast<std::size_t>(v)]);
    e.sub.wgt.push_back(pts.wgt[static_cast<std::size_t>(v)]);
    e.sub.totalWeight += pts.wgt[static_cast<std::size_t>(v)];
  }
  e.sub.numRows = pts.numRows;
  e.sub.numCols = pts.numCols;
  return e;
}

}  // namespace fghp::part::geo
