#include "partition/hg/coarsen.hpp"

#include <algorithm>

namespace fghp::part::hgc {

idx_t effective_max_net_size(const hg::Hypergraph& h) {
  // Scoring mates costs O(sum of |net|^2) per level; nets much larger than
  // average are almost always cut anyway, so skipping them trades no
  // measurable quality for an order of magnitude of coarsening time on
  // matrices with dense rows/columns.
  if (h.num_nets() == 0) return 64;
  const idx_t avg = h.num_pins() / h.num_nets();
  return std::max<idx_t>(64, 3 * avg);
}

ClusterMap cluster_hcm(const hg::Hypergraph& h, Rng& rng, idx_t maxNetSize,
                       const FixedSides& fixed) {
  return cluster_hcm_filtered(h, rng, maxNetSize, [&fixed](idx_t v, idx_t u) {
    if (fixed.empty()) return true;
    const signed char sv = fixed[static_cast<std::size_t>(v)];
    const signed char su = fixed[static_cast<std::size_t>(u)];
    return sv < 0 || su < 0 || sv == su;
  });
}

CoarseLevel contract(const hg::Hypergraph& fine, const ClusterMap& clusters,
                     const FixedSides& fixed) {
  FGHP_REQUIRE(clusters.size() == static_cast<std::size_t>(fine.num_vertices()),
               "cluster map size mismatch");
  FGHP_REQUIRE(fixed.empty() || fixed.size() == clusters.size(),
               "fixed-side vector size mismatch");

  // Densify cluster ids in first-appearance order.
  std::vector<idx_t> dense(clusters.size(), kInvalidIdx);
  std::vector<idx_t> remap(clusters.size(), kInvalidIdx);
  idx_t numCoarse = 0;
  for (std::size_t v = 0; v < clusters.size(); ++v) {
    const idx_t c = clusters[v];
    FGHP_REQUIRE(c >= 0 && static_cast<std::size_t>(c) < clusters.size(),
                 "cluster id out of range");
    if (remap[static_cast<std::size_t>(c)] == kInvalidIdx)
      remap[static_cast<std::size_t>(c)] = numCoarse++;
    dense[v] = remap[static_cast<std::size_t>(c)];
  }

  FixedSides coarseFixed;
  if (!fixed.empty()) {
    coarseFixed.assign(static_cast<std::size_t>(numCoarse), -1);
    for (idx_t v = 0; v < fine.num_vertices(); ++v) {
      const signed char side = fixed[static_cast<std::size_t>(v)];
      if (side < 0) continue;
      auto& slot = coarseFixed[static_cast<std::size_t>(dense[static_cast<std::size_t>(v)])];
      FGHP_REQUIRE(slot < 0 || slot == side,
                   "cluster merges vertices fixed to different sides");
      slot = side;
    }
  }

  // Group the fine vertices into their clusters, then sort each net's pins
  // so that identical nets compare equal.
  hg::HypergraphArrays g = hg::group_arrays(fine, dense, numCoarse);
  std::vector<idx_t>& xpins = g.xpins;
  std::vector<idx_t>& pins = g.pins;
  std::vector<weight_t>& costs = g.netCosts;
  const auto numNets = static_cast<idx_t>(costs.size());
  for (idx_t n = 0; n < numNets; ++n)
    std::sort(pins.begin() + xpins[static_cast<std::size_t>(n)],
              pins.begin() + xpins[static_cast<std::size_t>(n) + 1]);

  // Identical-net merging: hash (size, pins...) and merge equal runs.
  std::vector<std::pair<std::uint64_t, idx_t>> hashed(static_cast<std::size_t>(numNets));
  for (idx_t n = 0; n < numNets; ++n) {
    std::uint64_t hsh = 1469598103934665603ULL;
    for (idx_t i = xpins[static_cast<std::size_t>(n)]; i < xpins[static_cast<std::size_t>(n) + 1]; ++i) {
      hsh ^= static_cast<std::uint64_t>(pins[static_cast<std::size_t>(i)]) + 0x9e3779b97f4a7c15ULL;
      hsh *= 1099511628211ULL;
    }
    hashed[static_cast<std::size_t>(n)] = {hsh, n};
  }
  std::sort(hashed.begin(), hashed.end());

  auto same_net = [&](idx_t a, idx_t b) {
    const idx_t sa = xpins[static_cast<std::size_t>(a) + 1] - xpins[static_cast<std::size_t>(a)];
    const idx_t sb = xpins[static_cast<std::size_t>(b) + 1] - xpins[static_cast<std::size_t>(b)];
    if (sa != sb) return false;
    return std::equal(pins.begin() + xpins[static_cast<std::size_t>(a)],
                      pins.begin() + xpins[static_cast<std::size_t>(a) + 1],
                      pins.begin() + xpins[static_cast<std::size_t>(b)]);
  };

  std::vector<bool> dead(static_cast<std::size_t>(numNets), false);
  for (std::size_t i = 0; i < hashed.size();) {
    std::size_t j = i + 1;
    while (j < hashed.size() && hashed[j].first == hashed[i].first) ++j;
    // All nets in [i, j) share a hash; merge true duplicates into the first
    // surviving representative of each equivalence class.
    for (std::size_t a = i; a < j; ++a) {
      const idx_t na = hashed[a].second;
      if (dead[static_cast<std::size_t>(na)]) continue;
      for (std::size_t b = a + 1; b < j; ++b) {
        const idx_t nb = hashed[b].second;
        if (dead[static_cast<std::size_t>(nb)]) continue;
        if (same_net(na, nb)) {
          costs[static_cast<std::size_t>(na)] += costs[static_cast<std::size_t>(nb)];
          dead[static_cast<std::size_t>(nb)] = true;
        }
      }
    }
    i = j;
  }

  // Compact the surviving nets in place.
  std::size_t numPins = 0;
  idx_t kept = 0;
  for (idx_t n = 0; n < numNets; ++n) {
    if (dead[static_cast<std::size_t>(n)]) continue;
    const auto b = static_cast<std::size_t>(xpins[static_cast<std::size_t>(n)]);
    const auto e = static_cast<std::size_t>(xpins[static_cast<std::size_t>(n) + 1]);
    std::copy(pins.begin() + static_cast<std::ptrdiff_t>(b),
              pins.begin() + static_cast<std::ptrdiff_t>(e),
              pins.begin() + static_cast<std::ptrdiff_t>(numPins));
    numPins += e - b;
    costs[static_cast<std::size_t>(kept)] = costs[static_cast<std::size_t>(n)];
    xpins[static_cast<std::size_t>(++kept)] = static_cast<idx_t>(numPins);
  }
  pins.resize(numPins);
  pins.shrink_to_fit();
  xpins.resize(static_cast<std::size_t>(kept) + 1);
  costs.resize(static_cast<std::size_t>(kept));

  CoarseLevel level;
  level.coarse = hg::Hypergraph(numCoarse, std::move(xpins), std::move(pins),
                                std::move(g.vertexWeights), std::move(costs));
  level.fineToCoarse = std::move(dense);
  level.coarseFixed = std::move(coarseFixed);
  return level;
}

CoarseLevel coarsen_one_level(const hg::Hypergraph& fine, Rng& rng, const FixedSides& fixed) {
  return contract(fine, cluster_hcm(fine, rng, effective_max_net_size(fine), fixed), fixed);
}

}  // namespace fghp::part::hgc
