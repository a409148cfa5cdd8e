#include "partition/hg/vcycle.hpp"

#include "hypergraph/metrics.hpp"
#include "partition/hg/coarsen.hpp"
#include "partition/hg/kway_refine.hpp"

namespace fghp::part::hgv {

std::vector<idx_t> cluster_hcm_grouped(const hg::Hypergraph& h, Rng& rng, idx_t maxNetSize,
                                       const std::vector<idx_t>& group) {
  FGHP_REQUIRE(group.size() == static_cast<std::size_t>(h.num_vertices()),
               "group size mismatch");
  return hgc::cluster_hcm_filtered(h, rng, maxNetSize, [&group](idx_t v, idx_t u) {
    return group[static_cast<std::size_t>(u)] == group[static_cast<std::size_t>(v)];
  });
}

weight_t vcycle_refine(const hg::Hypergraph& h, hg::Partition& p, const PartitionConfig& cfg,
                       Rng& rng) {
  FGHP_REQUIRE(p.complete(), "vcycle_refine requires a complete partition");
  const idx_t K = p.num_parts();
  if (K <= 1 || h.num_vertices() == 0) return 0;

  const weight_t before = hg::cutsize(h, p, hg::CutMetric::kConnectivity);

  // Restricted coarsening stack. Each level's partition is induced exactly
  // (clusters never straddle parts), so no balance repair is needed.
  struct Level {
    hgc::CoarseLevel cl;
    std::vector<idx_t> part;  // coarse assignment
  };
  std::vector<Level> levels;
  const hg::Hypergraph* cur = &h;
  std::vector<idx_t> curPart = p.assignment();
  const idx_t stopAt = std::max<idx_t>(kCoarsenTo, 2 * K);
  for (idx_t lvl = 0; lvl < cfg.maxCoarsenLevels; ++lvl) {
    if (cur->num_vertices() <= stopAt) break;
    const idx_t maxNet = hgc::effective_max_net_size(*cur);
    std::vector<idx_t> clusters = cluster_hcm_grouped(*cur, rng, maxNet, curPart);
    hgc::CoarseLevel next = hgc::contract(*cur, clusters);
    const double reduction = static_cast<double>(next.coarse.num_vertices()) /
                             static_cast<double>(cur->num_vertices());
    if (reduction > kMinReductionFactor) break;
    std::vector<idx_t> coarsePart(static_cast<std::size_t>(next.coarse.num_vertices()),
                                  kInvalidIdx);
    for (idx_t v = 0; v < cur->num_vertices(); ++v) {
      coarsePart[static_cast<std::size_t>(next.fineToCoarse[static_cast<std::size_t>(v)])] =
          curPart[static_cast<std::size_t>(v)];
    }
    levels.push_back({std::move(next), std::move(coarsePart)});
    cur = &levels.back().cl.coarse;
    curPart = levels.back().part;
  }

  // Refine from the coarsest level downward; project each result.
  for (std::size_t i = levels.size(); i > 0; --i) {
    const hg::Hypergraph& lvlH = levels[i - 1].cl.coarse;
    hg::Partition lp(lvlH, K, levels[i - 1].part);
    hgk::kway_refine(lvlH, lp, cfg, rng);
    // Project onto the next finer level.
    const auto& map = levels[i - 1].cl.fineToCoarse;
    std::vector<idx_t>& finerPart = (i >= 2) ? levels[i - 2].part : curPart;
    const hg::Hypergraph& finer = (i >= 2) ? levels[i - 2].cl.coarse : h;
    finerPart.resize(static_cast<std::size_t>(finer.num_vertices()));
    for (idx_t v = 0; v < finer.num_vertices(); ++v) {
      finerPart[static_cast<std::size_t>(v)] =
          lp.part_of(map[static_cast<std::size_t>(v)]);
    }
  }

  hg::Partition refined(h, K, levels.empty() ? p.assignment() : curPart);
  hgk::kway_refine(h, refined, cfg, rng);

  const weight_t after = hg::cutsize(h, refined, hg::CutMetric::kConnectivity);
  if (after < before) {
    p = std::move(refined);
    return before - after;
  }
  return 0;
}

}  // namespace fghp::part::hgv
