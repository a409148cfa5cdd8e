#include "partition/gp/grefine.hpp"

#include <algorithm>
#include <limits>

#include "partition/multilevel.hpp"
#include "util/cancel.hpp"

namespace fghp::part::gpr {

weight_t GraphFM::compute_cut(const gp::Graph& g, const gp::GPartition& p) {
  weight_t cut = 0;
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    for (const gp::Adj& a : g.neighbors(v)) {
      if (a.to > v && p.part_of(a.to) != p.part_of(v)) cut += a.weight;
    }
  }
  return cut;
}

idx_t GraphFM::gain_of(const gp::Graph& g, const gp::GPartition& p, idx_t v) const {
  const idx_t side = p.part_of(v);
  weight_t gain = 0;
  for (const gp::Adj& a : g.neighbors(v)) {
    gain += p.part_of(a.to) != side ? a.weight : -a.weight;
  }
  return static_cast<idx_t>(gain);
}

void GraphFM::apply_move(const gp::Graph& g, gp::GPartition& p, idx_t v, bool updateGains) {
  const idx_t from = p.part_of(v);
  const idx_t to = 1 - from;

  if (updateGains) {
    locked_[static_cast<std::size_t>(v)] = 1;
    for (idx_t s = 0; s < 2; ++s)
      if (queue_[static_cast<std::size_t>(s)].contains(v))
        queue_[static_cast<std::size_t>(s)].remove(v);
  }

  p.move(g, v, to);

  if (updateGains) {
    for (const gp::Adj& a : g.neighbors(v)) {
      const idx_t u = a.to;
      if (locked_[static_cast<std::size_t>(u)]) continue;
      const idx_t su = p.part_of(u);
      auto& q = queue_[static_cast<std::size_t>(su)];
      // Edge (u,v): u on the old side gains an external edge (+2w to its
      // gain); u on the new side loses one (-2w).
      const idx_t delta = static_cast<idx_t>(su == from ? 2 * a.weight : -2 * a.weight);
      if (q.contains(u)) {
        q.adjust(u, delta);
      } else if (su == from) {
        q.push(u, gain_of(g, p, u));  // newly boundary
      }
    }
  }
}

weight_t GraphFM::pass(const gp::Graph& g, gp::GPartition& p,
                       const std::array<weight_t, 2>& maxWeight, weight_t startCut, Rng& rng) {
  std::fill(locked_.begin(), locked_.end(), 0);
  queue_[0].clear();
  queue_[1].clear();

  for (idx_t v : rng.permutation(g.num_vertices())) {
    bool boundary = false;
    for (const gp::Adj& a : g.neighbors(v)) {
      if (p.part_of(a.to) != p.part_of(v)) {
        boundary = true;
        break;
      }
    }
    if (boundary)
      queue_[static_cast<std::size_t>(p.part_of(v))].push(v, gain_of(g, p, v));
  }

  const auto earlyLimit = std::max<std::size_t>(
      static_cast<std::size_t>(kMinFmMoves),
      static_cast<std::size_t>(kFmEarlyExitFraction *
                               static_cast<double>(g.num_vertices())));

  std::vector<idx_t> moves;
  weight_t cur = startCut;
  weight_t best = startCut;
  std::size_t bestPrefix = 0;

  while (!queue_[0].empty() || !queue_[1].empty()) {
    idx_t chosenSide = kInvalidIdx;
    idx_t chosenGain = 0;
    idx_t infeasibleSide = kInvalidIdx;
    idx_t infeasibleGain = 0;
    for (idx_t s = 0; s < 2; ++s) {
      auto& q = queue_[static_cast<std::size_t>(s)];
      if (q.empty()) continue;
      const idx_t gTop = q.max_gain();
      const idx_t v = q.pop_max();
      const idx_t to = 1 - s;
      const bool feasible =
          p.part_weight(to) + g.vertex_weight(v) <= maxWeight[static_cast<std::size_t>(to)];
      q.push(v, gTop);
      if (feasible) {
        if (chosenSide == kInvalidIdx || gTop > chosenGain ||
            (gTop == chosenGain && p.part_weight(s) > p.part_weight(chosenSide))) {
          chosenSide = s;
          chosenGain = gTop;
        }
      } else if (infeasibleSide == kInvalidIdx || gTop > infeasibleGain) {
        infeasibleSide = s;
        infeasibleGain = gTop;
      }
    }

    if (chosenSide == kInvalidIdx) {
      if (infeasibleSide == kInvalidIdx) break;
      const idx_t v = queue_[static_cast<std::size_t>(infeasibleSide)].pop_max();
      locked_[static_cast<std::size_t>(v)] = 1;
      continue;
    }

    const idx_t v = queue_[static_cast<std::size_t>(chosenSide)].pop_max();
    queue_[static_cast<std::size_t>(chosenSide)].push(v, chosenGain);
    apply_move(g, p, v, /*updateGains=*/true);
    moves.push_back(v);
    cur -= chosenGain;
    if (cur < best) {
      best = cur;
      bestPrefix = moves.size();
    }
    if (moves.size() - bestPrefix > earlyLimit) break;
  }

  for (std::size_t i = moves.size(); i > bestPrefix; --i) {
    apply_move(g, p, moves[i - 1], /*updateGains=*/false);
  }
  return best;
}

void GraphFM::rebalance(const gp::Graph& g, gp::GPartition& p,
                        const std::array<weight_t, 2>& maxWeight) {
  for (idx_t s = 0; s < 2; ++s) {
    if (p.part_weight(s) <= maxWeight[static_cast<std::size_t>(s)]) continue;
    std::fill(locked_.begin(), locked_.end(), 0);
    queue_[0].clear();
    queue_[1].clear();
    auto& q = queue_[static_cast<std::size_t>(s)];
    for (idx_t v = 0; v < g.num_vertices(); ++v) {
      if (p.part_of(v) == s) q.push(v, gain_of(g, p, v));
    }
    while (p.part_weight(s) > maxWeight[static_cast<std::size_t>(s)] && !q.empty()) {
      const idx_t gTop = q.max_gain();
      const idx_t v = q.pop_max();
      q.push(v, gTop);
      apply_move(g, p, v, /*updateGains=*/true);
    }
  }
}

weight_t GraphFM::refine(const gp::Graph& g, gp::GPartition& p,
                         const std::array<weight_t, 2>& maxWeight, Rng& rng) {
  FGHP_REQUIRE(p.num_parts() == 2, "GraphFM requires a 2-way partition");
  FGHP_REQUIRE(p.complete(), "partition must be complete");

  locked_.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  const weight_t maxInc = g.max_incident_weight();
  FGHP_REQUIRE(maxInc < std::numeric_limits<idx_t>::max() / 4,
               "edge weights too large for FM gain buckets");
  queue_[0].reset(g.num_vertices(), static_cast<idx_t>(maxInc));
  queue_[1].reset(g.num_vertices(), static_cast<idx_t>(maxInc));

  rebalance(g, p, maxWeight);

  weight_t cut = compute_cut(g, p);
  for (idx_t passNo = 0; passNo < cfg_.maxFmPasses; ++passNo) {
    // Per-pass check-point (see BisectionFM::refine for the rationale).
    cancel::check_point(cfg_.cancel, "gfm.pass", nullptr, passNo + 1);
    const weight_t next = pass(g, p, maxWeight, cut, rng);
    FGHP_ASSERT(next <= cut);
    if (next == cut) break;
    cut = next;
  }
  return cut;
}

}  // namespace fghp::part::gpr
