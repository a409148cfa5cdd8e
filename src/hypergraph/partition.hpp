// K-way partition of a hypergraph's vertex set: the per-vertex part
// assignment plus maintained part weights (the paper's Π = {P_1..P_K}).
#pragma once

#include <span>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "util/types.hpp"

namespace fghp::hg {

class Partition {
 public:
  Partition() = default;

  /// All vertices initially unassigned (part == kInvalidIdx).
  Partition(const Hypergraph& h, idx_t numParts);

  /// Adopts an existing assignment (every entry in [0, numParts)).
  Partition(const Hypergraph& h, idx_t numParts, std::vector<idx_t> assignment);

  idx_t num_parts() const { return numParts_; }
  idx_t num_vertices() const { return static_cast<idx_t>(part_.size()); }

  idx_t part_of(idx_t v) const { return part_[static_cast<std::size_t>(v)]; }
  bool assigned(idx_t v) const { return part_of(v) != kInvalidIdx; }

  /// Assigns an unassigned vertex.
  void assign(const Hypergraph& h, idx_t v, idx_t part);

  /// Moves an assigned vertex to a different part, updating part weights.
  void move(const Hypergraph& h, idx_t v, idx_t toPart);

  weight_t part_weight(idx_t part) const { return partWeight_[static_cast<std::size_t>(part)]; }
  const std::vector<weight_t>& part_weights() const { return partWeight_; }
  const std::vector<idx_t>& assignment() const { return part_; }

  /// True when every vertex has a part.
  bool complete() const;

 private:
  idx_t numParts_ = 0;
  std::vector<idx_t> part_;
  std::vector<weight_t> partWeight_;
};

/// Lifts a partition of hg::group(h, groupOf, ·) back onto h's vertices:
/// vertex v gets the part of its group groupOf[v], or kInvalidIdx when the
/// grouping dropped it.
std::vector<idx_t> lift(std::span<const idx_t> groupOf, const Partition& groupPart);

}  // namespace fghp::hg
