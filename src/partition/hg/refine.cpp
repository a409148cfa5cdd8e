#include "partition/hg/refine.hpp"

#include <algorithm>
#include <limits>

#include "partition/multilevel.hpp"
#include "util/cancel.hpp"

namespace fghp::part::hgr {

namespace {
constexpr idx_t kGainCap = std::numeric_limits<idx_t>::max() / 4;
}

weight_t BisectionFM::compute_cut(const hg::Hypergraph& h, const hg::Partition& p) {
  weight_t cut = 0;
  for (idx_t n = 0; n < h.num_nets(); ++n) {
    const auto pins = h.pins(n);
    if (pins.empty()) continue;
    const idx_t first = p.part_of(pins.front());
    for (idx_t v : pins) {
      if (p.part_of(v) != first) {
        cut += h.net_cost(n);
        break;
      }
    }
  }
  return cut;
}

idx_t BisectionFM::gain_of(const hg::Hypergraph& h, const hg::Partition& p, idx_t v) const {
  const idx_t from = p.part_of(v);
  const idx_t to = 1 - from;
  weight_t gain = 0;
  for (idx_t n : h.nets(v)) {
    const auto& cnt = pinsIn_[static_cast<std::size_t>(n)];
    if (cnt[static_cast<std::size_t>(from)] == 1) gain += h.net_cost(n);
    if (cnt[static_cast<std::size_t>(to)] == 0) gain -= h.net_cost(n);
  }
  FGHP_ASSERT(gain > -kGainCap && gain < kGainCap);
  return static_cast<idx_t>(gain);
}

void BisectionFM::attach(const hg::Hypergraph& h, const hg::Partition& p) {
  FGHP_ASSERT(p.num_parts() == 2);
  pinsIn_.assign(static_cast<std::size_t>(h.num_nets()), {0, 0});
  for (idx_t n = 0; n < h.num_nets(); ++n) {
    auto& cnt = pinsIn_[static_cast<std::size_t>(n)];
    for (idx_t v : h.pins(n)) ++cnt[static_cast<std::size_t>(p.part_of(v))];
  }
  locked_.assign(static_cast<std::size_t>(h.num_vertices()), 0);

  weight_t maxIncident = 0;
  for (idx_t v = 0; v < h.num_vertices(); ++v) {
    weight_t inc = 0;
    for (idx_t n : h.nets(v)) inc += h.net_cost(n);
    maxIncident = std::max(maxIncident, inc);
  }
  FGHP_REQUIRE(maxIncident < kGainCap, "net costs too large for FM gain buckets");
  queue_[0].reset(h.num_vertices(), static_cast<idx_t>(maxIncident));
  queue_[1].reset(h.num_vertices(), static_cast<idx_t>(maxIncident));
}

void BisectionFM::apply_move(const hg::Hypergraph& h, hg::Partition& p, idx_t v,
                             bool updateGains) {
  const idx_t from = p.part_of(v);
  const idx_t to = 1 - from;

  if (updateGains) {
    locked_[static_cast<std::size_t>(v)] = 1;
    for (idx_t s = 0; s < 2; ++s)
      if (queue_[static_cast<std::size_t>(s)].contains(v))
        queue_[static_cast<std::size_t>(s)].remove(v);
  }

  for (idx_t n : h.nets(v)) {
    auto& cnt = pinsIn_[static_cast<std::size_t>(n)];
    const weight_t cw = h.net_cost(n);
    const idx_t c = static_cast<idx_t>(cw);

    if (updateGains) {
      // Classic FM critical-net rules. Gains live only for queued (unlocked
      // boundary) vertices; a net that becomes newly cut activates its pins.
      auto adjust = [&](idx_t u, idx_t delta) {
        if (locked_[static_cast<std::size_t>(u)]) return;
        const idx_t side = p.part_of(u);
        auto& q = queue_[static_cast<std::size_t>(side)];
        if (q.contains(u)) q.adjust(u, delta);
      };
      const idx_t T = cnt[static_cast<std::size_t>(to)];
      const idx_t F = cnt[static_cast<std::size_t>(from)];
      if (T == 0) {
        for (idx_t u : h.pins(n)) {
          if (u == v || locked_[static_cast<std::size_t>(u)]) continue;
          const idx_t side = p.part_of(u);
          auto& q = queue_[static_cast<std::size_t>(side)];
          if (q.contains(u)) {
            q.adjust(u, c);
          } else {
            activate_.push_back(u);  // newly boundary; pushed after the move
          }
        }
      } else if (T == 1) {
        for (idx_t u : h.pins(n)) {
          if (u != v && p.part_of(u) == to) {
            adjust(u, -c);
            break;
          }
        }
      }
      // Counts change here, between the before- and after-rules.
      --cnt[static_cast<std::size_t>(from)];
      ++cnt[static_cast<std::size_t>(to)];
      const idx_t Fafter = F - 1;
      if (Fafter == 0) {
        for (idx_t u : h.pins(n)) {
          if (u != v) adjust(u, -c);
        }
      } else if (Fafter == 1) {
        for (idx_t u : h.pins(n)) {
          if (u != v && p.part_of(u) == from) {
            adjust(u, c);
            break;
          }
        }
      }
    } else {
      --cnt[static_cast<std::size_t>(from)];
      ++cnt[static_cast<std::size_t>(to)];
    }
  }

  p.move(h, v, to);

  if (updateGains && !activate_.empty()) {
    for (idx_t u : activate_) {
      if (locked_[static_cast<std::size_t>(u)]) continue;
      auto& q = queue_[static_cast<std::size_t>(p.part_of(u))];
      if (!q.contains(u)) q.push(u, gain_of(h, p, u));
    }
    activate_.clear();
  }
}

weight_t BisectionFM::pass(const hg::Hypergraph& h, hg::Partition& p,
                           const std::array<weight_t, 2>& maxWeight, weight_t startCut,
                           Rng& rng) {
  std::fill(locked_.begin(), locked_.end(), 0);
  queue_[0].clear();
  queue_[1].clear();
  activate_.clear();
  if (fixed_ != nullptr && !fixed_->empty()) {
    // Fixed vertices are permanently locked: never queued, never activated.
    for (idx_t v = 0; v < h.num_vertices(); ++v) {
      if (is_fixed(v)) locked_[static_cast<std::size_t>(v)] = 1;
    }
  }

  // Seed the queues with boundary vertices, in random order for tie variety.
  for (idx_t v : rng.permutation(h.num_vertices())) {
    if (locked_[static_cast<std::size_t>(v)]) continue;
    bool boundary = false;
    for (idx_t n : h.nets(v)) {
      const auto& cnt = pinsIn_[static_cast<std::size_t>(n)];
      if (cnt[0] > 0 && cnt[1] > 0) {
        boundary = true;
        break;
      }
    }
    if (boundary) {
      queue_[static_cast<std::size_t>(p.part_of(v))].push(v, gain_of(h, p, v));
    }
  }

  const auto earlyLimit = std::max<std::size_t>(
      static_cast<std::size_t>(kMinFmMoves),
      static_cast<std::size_t>(kFmEarlyExitFraction *
                               static_cast<double>(h.num_vertices())));

  std::vector<idx_t> moves;
  weight_t cur = startCut;
  weight_t best = startCut;
  std::size_t bestPrefix = 0;

  while (!queue_[0].empty() || !queue_[1].empty()) {
    // Pick the best feasible move among the two queue tops.
    idx_t chosenSide = kInvalidIdx;
    idx_t chosenGain = 0;
    idx_t infeasibleSide = kInvalidIdx;
    idx_t infeasibleGain = 0;
    for (idx_t s = 0; s < 2; ++s) {
      auto& q = queue_[static_cast<std::size_t>(s)];
      if (q.empty()) continue;
      const idx_t g = q.max_gain();
      const idx_t top = h.num_vertices();  // placeholder for clarity
      (void)top;
      // Feasibility check needs the concrete vertex weight: peek via pop/push
      // would disturb LIFO order, so check with the top item.
      // BucketQueue lacks peek-item; emulate by pop + conditional re-push.
      const idx_t v = q.pop_max();
      const idx_t to = 1 - s;
      const bool feasible =
          p.part_weight(to) + h.vertex_weight(v) <= maxWeight[static_cast<std::size_t>(to)];
      q.push(v, g);  // restore; selection below re-pops the winner
      if (feasible) {
        if (chosenSide == kInvalidIdx || g > chosenGain ||
            (g == chosenGain && p.part_weight(s) > p.part_weight(chosenSide))) {
          chosenSide = s;
          chosenGain = g;
        }
      } else if (infeasibleSide == kInvalidIdx || g > infeasibleGain) {
        infeasibleSide = s;
        infeasibleGain = g;
      }
    }

    if (chosenSide == kInvalidIdx) {
      if (infeasibleSide == kInvalidIdx) break;
      // Discard the unusable top (locked for the rest of the pass).
      const idx_t v = queue_[static_cast<std::size_t>(infeasibleSide)].pop_max();
      locked_[static_cast<std::size_t>(v)] = 1;
      continue;
    }

    const idx_t v = queue_[static_cast<std::size_t>(chosenSide)].pop_max();
    queue_[static_cast<std::size_t>(chosenSide)].push(v, chosenGain);  // apply_move removes it
    apply_move(h, p, v, /*updateGains=*/true);
    moves.push_back(v);
    cur -= chosenGain;
    FGHP_ASSERT(cur >= 0);
    if (cur < best) {
      best = cur;
      bestPrefix = moves.size();
    }
    if (moves.size() - bestPrefix > earlyLimit) break;
  }

  // Roll back to the best prefix.
  for (std::size_t i = moves.size(); i > bestPrefix; --i) {
    apply_move(h, p, moves[i - 1], /*updateGains=*/false);
  }
  return best;
}

weight_t BisectionFM::refine(const hg::Hypergraph& h, hg::Partition& p,
                             const std::array<weight_t, 2>& maxWeight, Rng& rng) {
  FGHP_REQUIRE(p.num_parts() == 2, "BisectionFM requires a 2-way partition");
  FGHP_REQUIRE(p.complete(), "partition must be complete");
  attach(h, p);
  rebalance(h, p, maxWeight);

  weight_t cut = compute_cut(h, p);
  for (idx_t passNo = 0; passNo < cfg_.maxFmPasses; ++passNo) {
    // Per-pass check-point: the finest-grain cancellation granularity in
    // the partitioner. A deadline here aborts the bisection; the RB
    // driver's ladder answers with the greedy split.
    cancel::check_point(cfg_.cancel, "fm.pass", nullptr, passNo + 1);
    const weight_t next = pass(h, p, maxWeight, cut, rng);
    FGHP_ASSERT(next <= cut);
    if (next == cut) break;
    cut = next;
  }
  return cut;
}

void BisectionFM::rebalance(const hg::Hypergraph& h, hg::Partition& p,
                            const std::array<weight_t, 2>& maxWeight) {
  for (idx_t s = 0; s < 2; ++s) {
    if (p.part_weight(s) <= maxWeight[static_cast<std::size_t>(s)]) continue;
    // Move cheapest-damage vertices off the overloaded side until it fits.
    std::fill(locked_.begin(), locked_.end(), 0);
    queue_[0].clear();
    queue_[1].clear();
    activate_.clear();
    auto& q = queue_[static_cast<std::size_t>(s)];
    for (idx_t v = 0; v < h.num_vertices(); ++v) {
      if (is_fixed(v)) {
        locked_[static_cast<std::size_t>(v)] = 1;
        continue;
      }
      if (p.part_of(v) == s) q.push(v, gain_of(h, p, v));
    }
    while (p.part_weight(s) > maxWeight[static_cast<std::size_t>(s)] && !q.empty()) {
      const idx_t g = q.max_gain();
      const idx_t v = q.pop_max();
      q.push(v, g);  // apply_move unlinks it
      apply_move(h, p, v, /*updateGains=*/true);
    }
  }
}

}  // namespace fghp::part::hgr
