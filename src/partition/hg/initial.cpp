#include "partition/hg/initial.hpp"

#include <algorithm>
#include <limits>

#include "partition/hg/refine.hpp"
#include "util/bucket_queue.hpp"

namespace fghp::part::hgi {

hg::Partition random_bisection(const hg::Hypergraph& h, const std::array<weight_t, 2>& target,
                               Rng& rng, const FixedSides& fixed) {
  hg::Partition p(h, 2);
  std::array<weight_t, 2> room = target;
  if (!fixed.empty()) {
    for (idx_t v = 0; v < h.num_vertices(); ++v) {
      const signed char side = fixed[static_cast<std::size_t>(v)];
      if (side >= 0) {
        p.assign(h, v, side);
        room[static_cast<std::size_t>(side)] -= h.vertex_weight(v);
      }
    }
  }
  for (idx_t v : rng.permutation(h.num_vertices())) {
    if (p.assigned(v)) continue;
    // Assign to the side with more remaining room (deterministic given the
    // shuffled order); keeps both sides near their targets.
    const idx_t side = room[0] >= room[1] ? 0 : 1;
    p.assign(h, v, side);
    room[static_cast<std::size_t>(side)] -= h.vertex_weight(v);
  }
  return p;
}

hg::Partition ghg_bisection(const hg::Hypergraph& h, const std::array<weight_t, 2>& target,
                            Rng& rng, const FixedSides& fixed) {
  hg::Partition p(h, 2);
  for (idx_t v = 0; v < h.num_vertices(); ++v) p.assign(h, v, 0);
  if (h.num_vertices() == 0) return p;

  // pinsIn1[n]: pins of net n already moved to side 1. Gain of moving v
  // 0 -> 1: nets fully vacated from side 0 (+c), nets newly dragged into the
  // cut (-c).
  std::vector<idx_t> pinsIn1(static_cast<std::size_t>(h.num_nets()), 0);
  auto gain_of = [&](idx_t v) {
    weight_t g = 0;
    for (idx_t n : h.nets(v)) {
      const idx_t size = h.net_size(n);
      const idx_t in1 = pinsIn1[static_cast<std::size_t>(n)];
      if (size - in1 == 1) g += h.net_cost(n);  // v is the last side-0 pin
      if (in1 == 0) g -= h.net_cost(n);         // net newly cut
    }
    return static_cast<idx_t>(g);
  };

  weight_t maxIncident = 0;
  for (idx_t v = 0; v < h.num_vertices(); ++v) {
    weight_t inc = 0;
    for (idx_t n : h.nets(v)) inc += h.net_cost(n);
    maxIncident = std::max(maxIncident, inc);
  }
  BucketQueue queue(h.num_vertices(), static_cast<idx_t>(maxIncident));

  weight_t grown = 0;
  const weight_t want = target[1];
  std::vector<idx_t> order = rng.permutation(h.num_vertices());
  std::size_t seedCursor = 0;

  auto is_fixed0 = [&](idx_t v) {
    return !fixed.empty() && fixed[static_cast<std::size_t>(v)] == 0;
  };

  // Gains only change on two critical transitions of a net's side-1 pin
  // count t (c.f. the FM rules): t 0 -> 1 removes the "-c newly cut" term of
  // every side-0 pin, and t reaching |n|-1 grants the last side-0 pin its
  // "+c vacates side 0" bonus. Everything else is gain-neutral, making the
  // whole growth O(pins) amortized instead of O(moves * |net| * degree).
  auto bump = [&](idx_t u, idx_t delta) {
    if (is_fixed0(u)) return;  // pinned to side 0; never a candidate
    if (queue.contains(u)) {
      queue.adjust(u, delta);
    } else {
      queue.push(u, gain_of(u));  // fresh gain already reflects the move
    }
  };

  // Vertices fixed to side 1 move first and seed the growth front.
  std::vector<idx_t> pending;
  if (!fixed.empty()) {
    for (idx_t v = 0; v < h.num_vertices(); ++v) {
      if (fixed[static_cast<std::size_t>(v)] == 1) pending.push_back(v);
    }
  }
  std::size_t pendingCursor = 0;

  while (grown < want || pendingCursor < pending.size()) {
    idx_t v = kInvalidIdx;
    if (pendingCursor < pending.size()) {
      v = pending[pendingCursor++];
    } else if (!queue.empty()) {
      v = queue.pop_max();
    } else {
      // Disconnected remainder: seed a fresh growth front.
      while (seedCursor < order.size() &&
             (p.part_of(order[seedCursor]) == 1 || is_fixed0(order[seedCursor]))) {
        ++seedCursor;
      }
      if (seedCursor >= order.size()) break;
      v = order[seedCursor++];
    }
    if (p.part_of(v) == 1) continue;

    p.move(h, v, 1);
    grown += h.vertex_weight(v);
    for (idx_t n : h.nets(v)) {
      const idx_t t = pinsIn1[static_cast<std::size_t>(n)]++;
      const idx_t size = h.net_size(n);
      const idx_t c = static_cast<idx_t>(h.net_cost(n));
      if (t == 0) {
        // For a 2-pin net both transitions fire at once for the single
        // remaining side-0 pin; fold them into one bump so an unqueued pin
        // is not pushed-then-adjusted twice.
        const idx_t delta = (t + 1 == size - 1) ? 2 * c : c;
        for (idx_t u : h.pins(n)) {
          if (p.part_of(u) == 0) bump(u, delta);
        }
      } else if (t + 1 == size - 1) {
        for (idx_t u : h.pins(n)) {
          if (p.part_of(u) == 0) {
            bump(u, c);
            break;  // exactly one side-0 pin remains
          }
        }
      }
    }
  }
  return p;
}

hg::Partition greedy_bisection(const hg::Hypergraph& h, const std::array<weight_t, 2>& target,
                               const FixedSides& fixed) {
  hg::Partition p(h, 2);
  std::array<weight_t, 2> room = target;
  if (!fixed.empty()) {
    for (idx_t v = 0; v < h.num_vertices(); ++v) {
      const signed char side = fixed[static_cast<std::size_t>(v)];
      if (side >= 0) {
        p.assign(h, v, side);
        room[static_cast<std::size_t>(side)] -= h.vertex_weight(v);
      }
    }
  }
  std::vector<idx_t> order;
  order.reserve(static_cast<std::size_t>(h.num_vertices()));
  for (idx_t v = 0; v < h.num_vertices(); ++v) {
    if (!p.assigned(v)) order.push_back(v);
  }
  std::stable_sort(order.begin(), order.end(), [&](idx_t a, idx_t b) {
    return h.vertex_weight(a) > h.vertex_weight(b);
  });
  for (idx_t v : order) {
    const idx_t side = room[0] >= room[1] ? 0 : 1;
    p.assign(h, v, side);
    room[static_cast<std::size_t>(side)] -= h.vertex_weight(v);
  }
  return p;
}

hg::Partition initial_bisection(const hg::Hypergraph& h, const std::array<weight_t, 2>& target,
                                const std::array<weight_t, 2>& maxWeight,
                                const PartitionConfig& cfg, Rng& rng,
                                const FixedSides& fixed) {
  hgr::BisectionFM fm(cfg);
  fm.set_fixed(&fixed);
  hg::Partition best;
  weight_t bestCut = std::numeric_limits<weight_t>::max();
  bool bestFeasible = false;

  const idx_t runs = std::max<idx_t>(1, cfg.numInitialRuns);
  for (idx_t r = 0; r < runs; ++r) {
    // Even runs grow greedily (GHG), odd runs start from a random split.
    hg::Partition p = r % 2 == 0 ? ghg_bisection(h, target, rng, fixed)
                                 : random_bisection(h, target, rng, fixed);
    const weight_t cut = fm.refine(h, p, maxWeight, rng);
    const bool feasible = p.part_weight(0) <= maxWeight[0] && p.part_weight(1) <= maxWeight[1];
    if ((feasible && !bestFeasible) ||
        (feasible == bestFeasible && cut < bestCut)) {
      best = p;
      bestCut = cut;
      bestFeasible = feasible;
    }
  }
  return best;
}

}  // namespace fghp::part::hgi
