#include "partition/hg/recursive.hpp"

#include "partition/hg/rb_traits.hpp"
#include "partition/rb_driver.hpp"
#include "util/error.hpp"

namespace fghp::part::hgrb {

SideExtract extract_side(const hg::Hypergraph& h, const hg::Partition& bisection, idx_t side) {
  FGHP_REQUIRE(bisection.num_parts() == 2, "extract_side expects a bisection");

  SideExtract out;
  std::vector<idx_t> toSub(static_cast<std::size_t>(h.num_vertices()), kInvalidIdx);
  for (idx_t v = 0; v < h.num_vertices(); ++v) {
    if (bisection.part_of(v) == side) {
      toSub[static_cast<std::size_t>(v)] = static_cast<idx_t>(out.toParent.size());
      out.toParent.push_back(v);
    }
  }
  const auto numSub = static_cast<idx_t>(out.toParent.size());

  std::vector<weight_t> vwgt(static_cast<std::size_t>(numSub));
  for (idx_t sv = 0; sv < numSub; ++sv)
    vwgt[static_cast<std::size_t>(sv)] =
        h.vertex_weight(out.toParent[static_cast<std::size_t>(sv)]);

  std::vector<idx_t> xpins{0};
  std::vector<idx_t> pins;
  std::vector<weight_t> costs;
  for (idx_t n = 0; n < h.num_nets(); ++n) {
    const auto pinSpan = h.pins(n);
    idx_t inSide = 0;
    for (idx_t v : pinSpan) {
      if (bisection.part_of(v) == side) ++inSide;
    }
    if (inSide < 2) continue;
    for (idx_t v : pinSpan) {
      const idx_t sv = toSub[static_cast<std::size_t>(v)];
      if (sv != kInvalidIdx) pins.push_back(sv);
    }
    xpins.push_back(static_cast<idx_t>(pins.size()));
    costs.push_back(h.net_cost(n));
  }

  out.sub = hg::Hypergraph(numSub, std::move(xpins), std::move(pins), std::move(vwgt),
                           std::move(costs));
  return out;
}

RecursiveResult partition_recursive(const hg::Hypergraph& h, idx_t K,
                                    const PartitionConfig& cfg, Rng& rng,
                                    const std::vector<idx_t>& fixedPart) {
  RbResult<HgRbTraits> r =
      rb::partition_recursive_rb<HgRbTraits>(h, K, cfg, rng, fixedPart);
  return {std::move(r.partition), r.sumOfBisectionCuts, r.numRecoveries, r.numDegraded};
}

}  // namespace fghp::part::hgrb
