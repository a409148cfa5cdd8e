#include "hypergraph/hypergraph.hpp"

#include <algorithm>
#include <numeric>

namespace fghp::hg {

Hypergraph::Hypergraph(idx_t numVertices, std::vector<idx_t> xpins, std::vector<idx_t> pins,
                       std::vector<weight_t> vertexWeights, std::vector<weight_t> netCosts)
    : numVerts_(numVertices),
      numNets_(static_cast<idx_t>(netCosts.size())),
      xpins_(std::move(xpins)),
      pins_(std::move(pins)),
      vwgt_(std::move(vertexWeights)),
      ncost_(std::move(netCosts)) {
  FGHP_REQUIRE(numVerts_ >= 0, "vertex count must be non-negative");
  FGHP_REQUIRE(vwgt_.size() == static_cast<std::size_t>(numVerts_),
               "one weight per vertex required");
  FGHP_REQUIRE(xpins_.size() == static_cast<std::size_t>(numNets_) + 1,
               "xpins must have numNets+1 entries");
  FGHP_REQUIRE(xpins_.front() == 0, "xpins[0] must be 0");
  for (std::size_t n = 0; n < static_cast<std::size_t>(numNets_); ++n)
    FGHP_REQUIRE(xpins_[n] <= xpins_[n + 1], "xpins must be monotone");
  FGHP_REQUIRE(pins_.size() == static_cast<std::size_t>(xpins_.back()),
               "pins size must equal xpins.back()");
  for (idx_t v : pins_)
    FGHP_REQUIRE(v >= 0 && v < numVerts_, "pin vertex out of range");
  for (weight_t w : vwgt_) FGHP_REQUIRE(w >= 0, "vertex weights must be non-negative");
  for (weight_t c : ncost_) FGHP_REQUIRE(c >= 0, "net costs must be non-negative");

  totalWeight_ = std::accumulate(vwgt_.begin(), vwgt_.end(), weight_t{0});

  // Build the inverse incidence by counting sort over pins.
  xnets_.assign(static_cast<std::size_t>(numVerts_) + 1, 0);
  for (idx_t v : pins_) ++xnets_[static_cast<std::size_t>(v) + 1];
  for (std::size_t v = 0; v < static_cast<std::size_t>(numVerts_); ++v)
    xnets_[v + 1] += xnets_[v];
  nets_.resize(pins_.size());
  std::vector<idx_t> cursor(xnets_.begin(), xnets_.end() - 1);
  for (idx_t n = 0; n < numNets_; ++n) {
    for (idx_t v : this->pins(n)) {
      nets_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = n;
    }
  }
}

HypergraphArrays group_arrays(const Hypergraph& h, std::span<const idx_t> groupOf,
                              idx_t numGroups) {
  FGHP_REQUIRE(groupOf.size() == static_cast<std::size_t>(h.num_vertices()),
               "one group per vertex required");
  FGHP_REQUIRE(numGroups >= 0, "group count must be non-negative");
  HypergraphArrays out;
  out.vertexWeights.assign(static_cast<std::size_t>(numGroups), 0);
  for (idx_t v = 0; v < h.num_vertices(); ++v) {
    const idx_t g = groupOf[static_cast<std::size_t>(v)];
    if (g == kInvalidIdx) continue;
    FGHP_REQUIRE(g >= 0 && g < numGroups, "group id out of range");
    out.vertexWeights[static_cast<std::size_t>(g)] += h.vertex_weight(v);
  }

  // The groups of net n's pins, each once, in first-appearance order;
  // lastNet[g] == n once net n has a pin in group g.
  std::vector<idx_t> lastNet(static_cast<std::size_t>(numGroups), kInvalidIdx);
  auto for_each_group = [&](idx_t n, auto&& emit) {
    for (idx_t v : h.pins(n)) {
      const idx_t g = groupOf[static_cast<std::size_t>(v)];
      if (g == kInvalidIdx || lastNet[static_cast<std::size_t>(g)] == n) continue;
      lastNet[static_cast<std::size_t>(g)] = n;
      emit(g);
    }
  };
  // A first sweep sizes the arrays exactly. A dropped net leaves at most one
  // pin behind, hence the one spare slot that spares the fill a reallocation.
  std::size_t numPins = 0;
  std::size_t numNets = 0;
  for (idx_t n = 0; n < h.num_nets(); ++n) {
    std::size_t size = 0;
    for_each_group(n, [&size](idx_t) { ++size; });
    if (size >= 2) {
      numPins += size;
      ++numNets;
    }
  }
  out.pins.reserve(numPins + 1);
  out.xpins.reserve(numNets + 1);
  out.netCosts.reserve(numNets);
  std::fill(lastNet.begin(), lastNet.end(), kInvalidIdx);
  for (idx_t n = 0; n < h.num_nets(); ++n) {
    const std::size_t start = out.pins.size();
    for_each_group(n, [&out](idx_t g) { out.pins.push_back(g); });
    if (out.pins.size() - start < 2) {
      out.pins.resize(start);
      continue;
    }
    out.xpins.push_back(static_cast<idx_t>(out.pins.size()));
    out.netCosts.push_back(h.net_cost(n));
  }
  return out;
}

Hypergraph group(const Hypergraph& h, std::span<const idx_t> groupOf, idx_t numGroups) {
  HypergraphArrays g = group_arrays(h, groupOf, numGroups);
  return Hypergraph(numGroups, std::move(g.xpins), std::move(g.pins),
                    std::move(g.vertexWeights), std::move(g.netCosts));
}

}  // namespace fghp::hg
