#include "partition/gp/ginitial.hpp"

#include <algorithm>
#include <limits>

#include "partition/gp/grefine.hpp"
#include "util/bucket_queue.hpp"

namespace fghp::part::gpi {

gp::GPartition random_gbisection(const gp::Graph& g, const std::array<weight_t, 2>& target,
                                 Rng& rng) {
  gp::GPartition p(g, 2);
  std::array<weight_t, 2> room = target;
  for (idx_t v : rng.permutation(g.num_vertices())) {
    const idx_t side = room[0] >= room[1] ? 0 : 1;
    p.assign(g, v, side);
    room[static_cast<std::size_t>(side)] -= g.vertex_weight(v);
  }
  return p;
}

gp::GPartition ggg_bisection(const gp::Graph& g, const std::array<weight_t, 2>& target,
                             Rng& rng) {
  gp::GPartition p(g, 2);
  for (idx_t v = 0; v < g.num_vertices(); ++v) p.assign(g, v, 0);
  if (g.num_vertices() == 0) return p;

  // Gain of pulling v into side 1 = (edges to side 1) - (edges to side 0).
  auto gain_of = [&](idx_t v) {
    weight_t gain = 0;
    for (const gp::Adj& a : g.neighbors(v))
      gain += p.part_of(a.to) == 1 ? a.weight : -a.weight;
    return static_cast<idx_t>(gain);
  };

  BucketQueue queue(g.num_vertices(), static_cast<idx_t>(g.max_incident_weight()));
  std::vector<idx_t> order = rng.permutation(g.num_vertices());
  std::size_t seedCursor = 0;
  weight_t grown = 0;

  while (grown < target[1]) {
    idx_t v = kInvalidIdx;
    if (!queue.empty()) {
      v = queue.pop_max();
    } else {
      while (seedCursor < order.size() && p.part_of(order[seedCursor]) == 1) ++seedCursor;
      if (seedCursor >= order.size()) break;
      v = order[seedCursor++];
    }
    if (p.part_of(v) == 1) continue;
    p.move(g, v, 1);
    grown += g.vertex_weight(v);
    for (const gp::Adj& a : g.neighbors(v)) {
      if (p.part_of(a.to) == 0) {
        if (queue.contains(a.to)) {
          queue.adjust(a.to, static_cast<idx_t>(2 * a.weight));
        } else {
          queue.push(a.to, gain_of(a.to));
        }
      }
    }
  }
  return p;
}

gp::GPartition initial_gbisection(const gp::Graph& g, const std::array<weight_t, 2>& target,
                                  const std::array<weight_t, 2>& maxWeight,
                                  const PartitionConfig& cfg, Rng& rng) {
  gpr::GraphFM fm(cfg);
  gp::GPartition best;
  weight_t bestCut = std::numeric_limits<weight_t>::max();
  bool bestFeasible = false;

  const idx_t runs = std::max<idx_t>(1, cfg.numInitialRuns);
  for (idx_t r = 0; r < runs; ++r) {
    // Even runs grow greedily, odd runs start from a random split.
    gp::GPartition p =
        r % 2 == 0 ? ggg_bisection(g, target, rng) : random_gbisection(g, target, rng);
    const weight_t cut = fm.refine(g, p, maxWeight, rng);
    const bool feasible = p.part_weight(0) <= maxWeight[0] && p.part_weight(1) <= maxWeight[1];
    if ((feasible && !bestFeasible) || (feasible == bestFeasible && cut < bestCut)) {
      best = p;
      bestCut = cut;
      bestFeasible = feasible;
    }
  }
  return best;
}

gp::GPartition greedy_gbisection(const gp::Graph& g, const std::array<weight_t, 2>& target) {
  gp::GPartition p(g, 2);
  std::array<weight_t, 2> room = target;
  std::vector<idx_t> order(static_cast<std::size_t>(g.num_vertices()));
  for (idx_t v = 0; v < g.num_vertices(); ++v) order[static_cast<std::size_t>(v)] = v;
  std::stable_sort(order.begin(), order.end(), [&](idx_t a, idx_t b) {
    return g.vertex_weight(a) > g.vertex_weight(b);
  });
  for (idx_t v : order) {
    const idx_t side = room[0] >= room[1] ? 0 : 1;
    p.assign(g, v, side);
    room[static_cast<std::size_t>(side)] -= g.vertex_weight(v);
  }
  return p;
}

}  // namespace fghp::part::gpi
