#include "partition/gp/match.hpp"

#include <tuple>

namespace fghp::part::gpm {

ClusterMap match_heavy_edge(const gp::Graph& g, Rng& rng) {
  const idx_t n = g.num_vertices();
  ClusterMap cluster(static_cast<std::size_t>(n), kInvalidIdx);
  idx_t nextId = 0;
  for (idx_t v : rng.permutation(n)) {
    if (cluster[static_cast<std::size_t>(v)] != kInvalidIdx) continue;
    idx_t mate = kInvalidIdx;
    weight_t best = -1;
    for (const gp::Adj& a : g.neighbors(v)) {
      if (cluster[static_cast<std::size_t>(a.to)] == kInvalidIdx && a.weight > best) {
        best = a.weight;
        mate = a.to;
      }
    }
    const idx_t id = nextId++;
    cluster[static_cast<std::size_t>(v)] = id;
    if (mate != kInvalidIdx) cluster[static_cast<std::size_t>(mate)] = id;
  }
  return cluster;
}

GCoarseLevel contract_graph(const gp::Graph& fine, const ClusterMap& clusters) {
  FGHP_REQUIRE(clusters.size() == static_cast<std::size_t>(fine.num_vertices()),
               "cluster map size mismatch");
  std::vector<idx_t> remap(clusters.size(), kInvalidIdx);
  std::vector<idx_t> dense(clusters.size());
  idx_t numCoarse = 0;
  for (std::size_t v = 0; v < clusters.size(); ++v) {
    const idx_t c = clusters[v];
    FGHP_REQUIRE(c >= 0 && static_cast<std::size_t>(c) < clusters.size(),
                 "cluster id out of range");
    if (remap[static_cast<std::size_t>(c)] == kInvalidIdx)
      remap[static_cast<std::size_t>(c)] = numCoarse++;
    dense[v] = remap[static_cast<std::size_t>(c)];
  }

  std::vector<weight_t> vwgt(static_cast<std::size_t>(numCoarse), 0);
  for (idx_t v = 0; v < fine.num_vertices(); ++v)
    vwgt[static_cast<std::size_t>(dense[static_cast<std::size_t>(v)])] += fine.vertex_weight(v);

  std::vector<std::tuple<idx_t, idx_t, weight_t>> edges;
  for (idx_t v = 0; v < fine.num_vertices(); ++v) {
    const idx_t cv = dense[static_cast<std::size_t>(v)];
    for (const gp::Adj& a : fine.neighbors(v)) {
      if (a.to <= v) continue;  // each fine edge once
      const idx_t cu = dense[static_cast<std::size_t>(a.to)];
      if (cv != cu) edges.emplace_back(cv, cu, a.weight);  // Graph ctor merges parallels
    }
  }

  GCoarseLevel level;
  level.coarse = gp::Graph(numCoarse, std::move(edges), std::move(vwgt));
  level.fineToCoarse = std::move(dense);
  return level;
}

GCoarseLevel coarsen_one_level(const gp::Graph& fine, Rng& rng) {
  return contract_graph(fine, match_heavy_edge(fine, rng));
}

}  // namespace fghp::part::gpm
