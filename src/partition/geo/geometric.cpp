#include "partition/geo/geometric.hpp"

#include <algorithm>
#include <optional>

#include "hypergraph/metrics.hpp"
#include "partition/geo/rb_traits.hpp"
#include "partition/rb_driver.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fghp::part::geo {

namespace {

/// Moves points out of over-cap parts into the lightest parts, in
/// point-index order, until every part is within `cap`. Only runs when a
/// best-effort bisection overshot (nonuniform weights); with unit weights
/// the median splits hit their targets exactly and this is a no-op.
/// Deterministic: a pure function of (assignment, weights).
bool rebalance_to_cap(const GeoPoints& pts, idx_t K, weight_t cap,
                      std::vector<idx_t>& part, std::vector<weight_t>& load) {
  bool moved = false;
  for (idx_t v = 0; v < pts.num_vertices(); ++v) {
    const idx_t from = part[static_cast<std::size_t>(v)];
    if (load[static_cast<std::size_t>(from)] <= cap) continue;
    const weight_t w = pts.wgt[static_cast<std::size_t>(v)];
    idx_t to = kInvalidIdx;
    for (idx_t k = 0; k < K; ++k) {
      if (k == from || load[static_cast<std::size_t>(k)] + w > cap) continue;
      if (to == kInvalidIdx ||
          load[static_cast<std::size_t>(k)] < load[static_cast<std::size_t>(to)])
        to = k;
    }
    if (to == kInvalidIdx) continue;
    part[static_cast<std::size_t>(v)] = to;
    load[static_cast<std::size_t>(from)] -= w;
    load[static_cast<std::size_t>(to)] += w;
    moved = true;
  }
  return moved;
}

/// A line is "heavy" above 4x the average degree (never below 16 pins):
/// its net will be cut by almost any partition — it is doomed — while its
/// entries, scattered along the other axis, drag every light line they sit
/// on across the cut under coordinate bisection. Multilevel sidesteps this
/// via per-entry freedom; the peel below restores exactly that freedom.
std::vector<char> heavy_lines(const std::vector<idx_t>& deg, idx_t z) {
  const idx_t lines = static_cast<idx_t>(deg.size());
  const double avg = lines > 0 ? static_cast<double>(z) / lines : 0.0;
  const idx_t threshold = std::max<idx_t>(16, static_cast<idx_t>(4.0 * avg) + 1);
  std::vector<char> heavy(deg.size(), 0);
  for (std::size_t i = 0; i < deg.size(); ++i) heavy[i] = deg[i] > threshold ? 1 : 0;
  return heavy;
}

/// Majority part per line over the non-peeled points (ties to the lowest
/// part id; kInvalidIdx where a line has no kept points). One counting sort
/// plus a stamped per-part tally: O(z + lines + K).
std::vector<idx_t> majority_by_line(const GeoPoints& pts, const std::vector<char>& peeled,
                                    const std::vector<idx_t>& part, bool byRow, idx_t K) {
  const std::vector<idx_t>& coord = byRow ? pts.row : pts.col;
  const idx_t lines = byRow ? pts.numRows : pts.numCols;
  const idx_t z = pts.num_vertices();
  std::vector<idx_t> offset(static_cast<std::size_t>(lines) + 1, 0);
  for (idx_t v = 0; v < z; ++v)
    if (!peeled[static_cast<std::size_t>(v)])
      ++offset[static_cast<std::size_t>(coord[static_cast<std::size_t>(v)]) + 1];
  for (idx_t c = 0; c < lines; ++c)
    offset[static_cast<std::size_t>(c) + 1] += offset[static_cast<std::size_t>(c)];
  std::vector<idx_t> order(static_cast<std::size_t>(offset.back()));
  {
    std::vector<idx_t> cursor(offset.begin(), offset.end() - 1);
    for (idx_t v = 0; v < z; ++v)
      if (!peeled[static_cast<std::size_t>(v)])
        order[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(coord[static_cast<std::size_t>(v)])]++)] = v;
  }
  std::vector<idx_t> maj(static_cast<std::size_t>(lines), kInvalidIdx);
  std::vector<idx_t> count(static_cast<std::size_t>(K), 0);
  std::vector<idx_t> stamp(static_cast<std::size_t>(K), -1);
  for (idx_t c = 0; c < lines; ++c) {
    idx_t best = kInvalidIdx;
    for (idx_t i = offset[static_cast<std::size_t>(c)];
         i < offset[static_cast<std::size_t>(c) + 1]; ++i) {
      const idx_t k = part[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
      if (stamp[static_cast<std::size_t>(k)] != c) {
        stamp[static_cast<std::size_t>(k)] = c;
        count[static_cast<std::size_t>(k)] = 0;
      }
      ++count[static_cast<std::size_t>(k)];
      if (best == kInvalidIdx || count[static_cast<std::size_t>(k)] > count[static_cast<std::size_t>(best)] ||
          (count[static_cast<std::size_t>(k)] == count[static_cast<std::size_t>(best)] && k < best))
        best = k;
    }
    maj[static_cast<std::size_t>(c)] = best;
  }
  return maj;
}

}  // namespace

GeoResult partition_points_geometric(const GeoPoints& pts, idx_t K,
                                     const PartitionConfig& cfg) {
  FGHP_REQUIRE(K >= 1, "K must be positive");
  WallTimer timer;

  // Same operational scoping as partition_hypergraph: per-call fault spec,
  // one enclosing span.
  std::optional<fault::ScopedSpec> faultScope;
  if (!cfg.faultSpec.empty()) faultScope.emplace(cfg.faultSpec);
  trace::TraceScope span("partition", "geo.partition", "k", K, "verts",
                         pts.num_vertices());

  cancel::check_point(cfg.cancel, "geo.partition", nullptr, 1,
                      /*deadlineThrows=*/!cfg.degradeOnDeadline);

  const idx_t z = pts.num_vertices();
  const weight_t cap = hg::balance_cap(pts.totalWeight, K, cfg.epsilon);

  // Scatter peel (the fine-grain model's per-entry freedom, restored): an
  // entry on a heavy (doomed) line is withheld from the geometric recursion
  // — it carries no usable spatial signal, only noise that drags its light
  // counterpart line across every cut — and is re-assigned afterwards to
  // the majority part of that light line. Skipped when it would remove the
  // majority of points (near-dense matrices have no coherent remainder).
  std::vector<idx_t> degR(static_cast<std::size_t>(pts.numRows), 0);
  std::vector<idx_t> degC(static_cast<std::size_t>(pts.numCols), 0);
  for (idx_t v = 0; v < z; ++v) {
    ++degR[static_cast<std::size_t>(pts.row[static_cast<std::size_t>(v)])];
    ++degC[static_cast<std::size_t>(pts.col[static_cast<std::size_t>(v)])];
  }
  const std::vector<char> heavyR = heavy_lines(degR, z);
  const std::vector<char> heavyC = heavy_lines(degC, z);
  std::vector<char> peeled(static_cast<std::size_t>(z), 0);
  idx_t numPeeled = 0;
  for (idx_t v = 0; v < z; ++v) {
    if (heavyR[static_cast<std::size_t>(pts.row[static_cast<std::size_t>(v)])] ||
        heavyC[static_cast<std::size_t>(pts.col[static_cast<std::size_t>(v)])]) {
      peeled[static_cast<std::size_t>(v)] = 1;
      ++numPeeled;
    }
  }
  const bool peel = numPeeled > 0 && numPeeled < z / 2;

  Rng rng(cfg.seed);
  GeoResult out;
  GeoPartition full;
  if (!peel) {
    RbResult<georb::GeoRbTraits> res =
        rb::partition_recursive_rb<georb::GeoRbTraits>(pts, K, cfg, rng);
    out.cutsize = res.sumOfBisectionCuts;  // telescoped: exact, no recompute
    out.numRecoveries = res.numRecoveries;
    out.numDegraded = res.numDegraded;
    full = std::move(res.partition);
  } else {
    trace::instant("partition", "geo.peel", "points", numPeeled);
    // Recurse on the coherent remainder only.
    GeoPoints kept;
    kept.numRows = pts.numRows;
    kept.numCols = pts.numCols;
    std::vector<idx_t> toParent;
    for (idx_t v = 0; v < z; ++v) {
      if (peeled[static_cast<std::size_t>(v)]) continue;
      toParent.push_back(v);
      kept.row.push_back(pts.row[static_cast<std::size_t>(v)]);
      kept.col.push_back(pts.col[static_cast<std::size_t>(v)]);
      kept.wgt.push_back(pts.wgt[static_cast<std::size_t>(v)]);
      kept.totalWeight += pts.wgt[static_cast<std::size_t>(v)];
    }
    RbResult<georb::GeoRbTraits> res =
        rb::partition_recursive_rb<georb::GeoRbTraits>(kept, K, cfg, rng);
    out.numRecoveries = res.numRecoveries;
    out.numDegraded = res.numDegraded;

    std::vector<idx_t> part(static_cast<std::size_t>(z), kInvalidIdx);
    std::vector<weight_t> load(static_cast<std::size_t>(K), 0);
    for (idx_t s = 0; s < kept.num_vertices(); ++s) {
      const idx_t k = res.partition.part_of(s);
      part[static_cast<std::size_t>(toParent[static_cast<std::size_t>(s)])] = k;
      load[static_cast<std::size_t>(k)] += kept.wgt[static_cast<std::size_t>(s)];
    }

    // Peeled points, in index order: follow the light line's majority when
    // it exists and fits the cap, else go least-loaded. Assigning also
    // seeds the majority of a line that had no kept points, so an
    // all-peeled line still lands together.
    std::vector<idx_t> majR = majority_by_line(pts, peeled, part, /*byRow=*/true, K);
    std::vector<idx_t> majC = majority_by_line(pts, peeled, part, /*byRow=*/false, K);
    for (idx_t v = 0; v < z; ++v) {
      if (!peeled[static_cast<std::size_t>(v)]) continue;
      const idx_t r = pts.row[static_cast<std::size_t>(v)];
      const idx_t c = pts.col[static_cast<std::size_t>(v)];
      const weight_t w = pts.wgt[static_cast<std::size_t>(v)];
      idx_t k = kInvalidIdx;
      if (!heavyR[static_cast<std::size_t>(r)]) k = majR[static_cast<std::size_t>(r)];
      else if (!heavyC[static_cast<std::size_t>(c)]) k = majC[static_cast<std::size_t>(c)];
      if (k != kInvalidIdx && load[static_cast<std::size_t>(k)] + w > cap) k = kInvalidIdx;
      if (k == kInvalidIdx) {
        for (idx_t q = 0; q < K; ++q) {
          if (load[static_cast<std::size_t>(q)] + w > cap) continue;
          if (k == kInvalidIdx ||
              load[static_cast<std::size_t>(q)] < load[static_cast<std::size_t>(k)])
            k = q;
        }
        if (k == kInvalidIdx)  // infeasible heavyweight: best-effort
          k = static_cast<idx_t>(std::min_element(load.begin(), load.end()) - load.begin());
      }
      part[static_cast<std::size_t>(v)] = k;
      load[static_cast<std::size_t>(k)] += w;
      if (majR[static_cast<std::size_t>(r)] == kInvalidIdx) majR[static_cast<std::size_t>(r)] = k;
      if (majC[static_cast<std::size_t>(c)] == kInvalidIdx) majC[static_cast<std::size_t>(c)] = k;
    }
    full = GeoPartition(pts, K, std::move(part));
    out.cutsize = connectivity_cutsize(pts, full);  // peel breaks telescoping
  }

  if (cfg.validateLevel == ValidateLevel::kStrict)
    validate_partition_or_throw(pts, full, "geo-partition");

  // Balance feasibility is part of the contract even when a best-effort
  // bisection overshot its cap: repair, then pay for the moved points by
  // recomputing the cut exactly (the telescoped sum is stale after a move).
  bool over = false;
  for (idx_t k = 0; k < K; ++k) over = over || full.part_weight(k) > cap;
  if (over) {
    std::vector<idx_t> part = full.assignment();
    std::vector<weight_t> load = full.part_weights();
    if (rebalance_to_cap(pts, K, cap, part, load)) {
      full = GeoPartition(pts, K, std::move(part));
      out.cutsize = connectivity_cutsize(pts, full);
      push_warning("geometric partition exceeded the balance cap; repaired by "
                   "a deterministic rebalance pass");
      ++out.numRecoveries;
    }
  }

  static metrics::Counter& runs = metrics::counter("partition.geo.runs");
  static metrics::Counter& recovered = metrics::counter("partition.recoveries");
  runs.add();
  recovered.add(out.numRecoveries);

  out.imbalance = imbalance(pts, full);
  out.partition = std::move(full);
  out.seconds = timer.seconds();
  return out;
}

}  // namespace fghp::part::geo
