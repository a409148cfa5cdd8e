#include "hypergraph/partition.hpp"

#include <algorithm>

namespace fghp::hg {

Partition::Partition(const Hypergraph& h, idx_t numParts)
    : numParts_(numParts),
      part_(static_cast<std::size_t>(h.num_vertices()), kInvalidIdx),
      partWeight_(static_cast<std::size_t>(numParts), 0) {
  FGHP_REQUIRE(numParts >= 1, "need at least one part");
}

Partition::Partition(const Hypergraph& h, idx_t numParts, std::vector<idx_t> assignment)
    : numParts_(numParts),
      part_(std::move(assignment)),
      partWeight_(static_cast<std::size_t>(numParts), 0) {
  FGHP_REQUIRE(numParts >= 1, "need at least one part");
  FGHP_REQUIRE(part_.size() == static_cast<std::size_t>(h.num_vertices()),
               "assignment size must equal vertex count");
  for (idx_t v = 0; v < h.num_vertices(); ++v) {
    const idx_t p = part_[static_cast<std::size_t>(v)];
    FGHP_REQUIRE(p >= 0 && p < numParts, "part id out of range");
    partWeight_[static_cast<std::size_t>(p)] += h.vertex_weight(v);
  }
}

void Partition::assign(const Hypergraph& h, idx_t v, idx_t part) {
  FGHP_ASSERT(!assigned(v));
  FGHP_ASSERT(part >= 0 && part < numParts_);
  part_[static_cast<std::size_t>(v)] = part;
  partWeight_[static_cast<std::size_t>(part)] += h.vertex_weight(v);
}

void Partition::move(const Hypergraph& h, idx_t v, idx_t toPart) {
  FGHP_ASSERT(assigned(v));
  FGHP_ASSERT(toPart >= 0 && toPart < numParts_);
  const idx_t from = part_[static_cast<std::size_t>(v)];
  if (from == toPart) return;
  partWeight_[static_cast<std::size_t>(from)] -= h.vertex_weight(v);
  partWeight_[static_cast<std::size_t>(toPart)] += h.vertex_weight(v);
  part_[static_cast<std::size_t>(v)] = toPart;
}

bool Partition::complete() const {
  return std::none_of(part_.begin(), part_.end(),
                      [](idx_t p) { return p == kInvalidIdx; });
}

std::vector<idx_t> lift(std::span<const idx_t> groupOf, const Partition& groupPart) {
  std::vector<idx_t> part(groupOf.size(), kInvalidIdx);
  for (std::size_t v = 0; v < groupOf.size(); ++v)
    if (groupOf[v] != kInvalidIdx) part[v] = groupPart.part_of(groupOf[v]);
  return part;
}

}  // namespace fghp::hg
