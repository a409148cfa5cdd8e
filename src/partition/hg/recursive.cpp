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
  out.sub = hg::group(h, toSub, static_cast<idx_t>(out.toParent.size()));
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
