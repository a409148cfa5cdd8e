#include "partition/hg/bisect.hpp"

#include <algorithm>

#include "partition/hg/coarsen.hpp"
#include "partition/hg/initial.hpp"
#include "partition/hg/refine.hpp"
#include "partition/multilevel.hpp"
#include "partition/phase_timers.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/trace.hpp"

namespace fghp::part::hgb {

hg::Partition multilevel_bisect(const hg::Hypergraph& h, const std::array<weight_t, 2>& target,
                                const std::array<weight_t, 2>& maxWeight,
                                const PartitionConfig& cfg, Rng& rng,
                                const hgc::FixedSides& fixed) {
  FGHP_REQUIRE(target[0] + target[1] == h.total_vertex_weight(),
               "bisection targets must sum to the total vertex weight");
  FGHP_REQUIRE(fixed.empty() || fixed.size() == static_cast<std::size_t>(h.num_vertices()),
               "fixed-side vector size mismatch");

  // --- Coarsening phase ---------------------------------------------------
  // levels[i].coarse is the hypergraph one level coarser than level i-1's
  // (level 0 coarsens h itself).
  std::vector<hgc::CoarseLevel> levels;
  const hg::Hypergraph* cur = &h;
  const hgc::FixedSides* curFixed = &fixed;
  {
    ScopedPhase phase(Phase::kCoarsen);
    for (idx_t lvl = 0; lvl < cfg.maxCoarsenLevels; ++lvl) {
      if (cur->num_vertices() <= kCoarsenTo) break;
      // Per-coarsen-level check-point; a deadline thrown here is converted
      // into a greedy degradation by the RB driver's recovery ladder.
      cancel::check_point(cfg.cancel, "coarsen.level", nullptr, lvl + 1);
      trace::TraceScope lvlSpan("rb", "coarsen.level", "level", lvl, "verts",
                                cur->num_vertices());
      hgc::CoarseLevel next = hgc::coarsen_one_level(*cur, rng, *curFixed);
      const double reduction = static_cast<double>(next.coarse.num_vertices()) /
                               static_cast<double>(cur->num_vertices());
      if (reduction > kMinReductionFactor) break;  // stagnated
      levels.push_back(std::move(next));
      cur = &levels.back().coarse;
      curFixed = &levels.back().coarseFixed;
    }
  }

  // --- Initial partitioning at the coarsest level --------------------------
  hg::Partition p = [&] {
    ScopedPhase phase(Phase::kInitial);
    return hgi::initial_bisection(*cur, target, maxWeight, cfg, rng, *curFixed);
  }();

  // --- Uncoarsening + refinement -------------------------------------------
  ScopedPhase refinePhase(Phase::kRefine);
  fault::check("fm.refine");
  hgr::BisectionFM fm(cfg);
  fm.set_fixed(curFixed);
  fm.refine(*cur, p, maxWeight, rng);
  for (std::size_t i = levels.size(); i > 0; --i) {
    const hg::Hypergraph& fine = (i >= 2) ? levels[i - 2].coarse : h;
    const hgc::FixedSides& fineFixed = (i >= 2) ? levels[i - 2].coarseFixed : fixed;
    cancel::check_point(cfg.cancel, "refine.level", nullptr, static_cast<long>(i));
    trace::TraceScope lvlSpan("rb", "refine.level", "level",
                              static_cast<std::int64_t>(i - 1), "verts",
                              fine.num_vertices());
    const auto& map = levels[i - 1].fineToCoarse;
    std::vector<idx_t> assignment(static_cast<std::size_t>(fine.num_vertices()));
    for (idx_t v = 0; v < fine.num_vertices(); ++v)
      assignment[static_cast<std::size_t>(v)] = p.part_of(map[static_cast<std::size_t>(v)]);
    p = hg::Partition(fine, 2, std::move(assignment));
    fm.set_fixed(&fineFixed);
    fm.refine(fine, p, maxWeight, rng);
  }
  return p;
}

}  // namespace fghp::part::hgb
