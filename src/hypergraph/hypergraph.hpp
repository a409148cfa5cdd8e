// Hypergraph H = (V, N): CSR-style pin storage plus the inverse
// vertex->nets incidence, vertex weights and net costs — the substrate under
// both the 1D column-net model and the paper's 2D fine-grain model.
#pragma once

#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace fghp::hg {

class Hypergraph {
 public:
  Hypergraph() = default;

  /// Takes ownership of fully-formed arrays.
  ///   xpins: numNets+1 offsets into pins (monotone, xpins[0]==0)
  ///   pins:  concatenated pin lists; a vertex may appear at most once per net
  ///   vertexWeights: one per vertex (>= 0)
  ///   netCosts: one per net (>= 0)
  /// The inverse incidence (nets of a vertex) is built here.
  /// Violations throw std::invalid_argument.
  Hypergraph(idx_t numVertices, std::vector<idx_t> xpins, std::vector<idx_t> pins,
             std::vector<weight_t> vertexWeights, std::vector<weight_t> netCosts);

  idx_t num_vertices() const { return numVerts_; }
  idx_t num_nets() const { return numNets_; }
  idx_t num_pins() const { return static_cast<idx_t>(pins_.size()); }

  /// Pins (member vertices) of a net.
  std::span<const idx_t> pins(idx_t net) const {
    FGHP_ASSERT(net >= 0 && net < numNets_);
    const auto b = static_cast<std::size_t>(xpins_[static_cast<std::size_t>(net)]);
    const auto e = static_cast<std::size_t>(xpins_[static_cast<std::size_t>(net) + 1]);
    return {pins_.data() + b, e - b};
  }

  /// Nets incident to a vertex.
  std::span<const idx_t> nets(idx_t vertex) const {
    FGHP_ASSERT(vertex >= 0 && vertex < numVerts_);
    const auto b = static_cast<std::size_t>(xnets_[static_cast<std::size_t>(vertex)]);
    const auto e = static_cast<std::size_t>(xnets_[static_cast<std::size_t>(vertex) + 1]);
    return {nets_.data() + b, e - b};
  }

  idx_t net_size(idx_t net) const {
    return xpins_[static_cast<std::size_t>(net) + 1] - xpins_[static_cast<std::size_t>(net)];
  }

  idx_t vertex_degree(idx_t vertex) const {
    return xnets_[static_cast<std::size_t>(vertex) + 1] - xnets_[static_cast<std::size_t>(vertex)];
  }

  weight_t vertex_weight(idx_t vertex) const {
    return vwgt_[static_cast<std::size_t>(vertex)];
  }

  weight_t net_cost(idx_t net) const { return ncost_[static_cast<std::size_t>(net)]; }

  /// Sum of all vertex weights.
  weight_t total_vertex_weight() const { return totalWeight_; }

  const std::vector<idx_t>& xpins() const { return xpins_; }
  const std::vector<idx_t>& pin_array() const { return pins_; }
  const std::vector<weight_t>& vertex_weights() const { return vwgt_; }
  const std::vector<weight_t>& net_costs() const { return ncost_; }

 private:
  idx_t numVerts_ = 0;
  idx_t numNets_ = 0;
  weight_t totalWeight_ = 0;
  std::vector<idx_t> xpins_{0};
  std::vector<idx_t> pins_;
  std::vector<idx_t> xnets_{0};
  std::vector<idx_t> nets_;
  std::vector<weight_t> vwgt_;
  std::vector<weight_t> ncost_;
};

/// A hypergraph's arrays before the inverse incidence is built (the
/// Hypergraph constructor's arguments), for callers that post-process them.
struct HypergraphArrays {
  std::vector<idx_t> xpins{0};
  std::vector<idx_t> pins;
  std::vector<weight_t> vertexWeights;
  std::vector<weight_t> netCosts;
};

/// Merges the vertices of h into numGroups groups: vertex v joins group
/// groupOf[v], or is dropped when groupOf[v] == kInvalidIdx. A group weighs
/// the sum of its members. Each net keeps one pin per group it touches, in
/// first-appearance order (neither sorted nor merged with identical nets);
/// a net left with fewer than 2 pins can never be cut and is dropped. Net
/// costs carry over.
HypergraphArrays group_arrays(const Hypergraph& h, std::span<const idx_t> groupOf,
                              idx_t numGroups);

/// group_arrays as a Hypergraph on numGroups vertices.
Hypergraph group(const Hypergraph& h, std::span<const idx_t> groupOf, idx_t numGroups);

}  // namespace fghp::hg
