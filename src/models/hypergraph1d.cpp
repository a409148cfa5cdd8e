#include "models/hypergraph1d.hpp"

#include "util/assert.hpp"
#include "util/trace.hpp"

namespace fghp::model {

part::HgResult partition_grouped(const FineGrainModel& m, const std::vector<idx_t>& groupOf,
                                 idx_t numGroups, idx_t K, const part::PartitionConfig& cfg,
                                 ModelRun& run) {
  hg::Hypergraph h;
  {
    trace::TraceScope span("model", "build.group", "groups", numGroups, "pins", m.h.num_pins());
    h = hg::group(m.h, groupOf, numGroups);
  }
  part::HgResult r = part::partition_hypergraph(h, K, cfg);
  run.partitionSeconds += r.seconds;
  run.numRecoveries += r.numRecoveries;
  run.numDegraded += r.numDegraded;
  return r;
}

ModelRun run_hypergraph1d(const sparse::Csr& a, idx_t K, const part::PartitionConfig& cfg,
                          Line line) {
  const FineGrainModel m = build_finegrain(a);
  const std::vector<idx_t> lines = vertex_lines(a, m, line);
  ModelRun run;
  const part::HgResult r = partition_grouped(m, lines, a.num_rows(), K, cfg, run);
  run.objective = r.cutsize;
  run.imbalance = r.imbalance;
  run.decomp = decode_finegrain(a, m, hg::Partition(m.h, K, hg::lift(lines, r.partition)));
  return run;
}

}  // namespace fghp::model
