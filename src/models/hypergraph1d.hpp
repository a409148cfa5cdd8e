// The 1D hypergraph models (Çatalyürek & Aykanat, TPDS 1999) — the stronger
// 1D baseline of Table 2 — as groupings of the fine-grain hypergraph.
//
// Merging the fine-grain vertices of each row (Line::kRow) gives the
// column-net model: vertices are rows with weight nnz(row), and net n_j
// holds the rows with a nonzero in column j plus row j itself (the dummy
// v_jj becomes the consistency pin). Merging each column (Line::kCol) gives
// its columnwise dual, the row-net model. Row nets of the first grouping and
// column nets of the second shrink to one pin and drop out. Either partition
// decodes by lifting it onto the fine-grain vertices, so the lambda-1
// cutsize is the exact expand (kRow) or fold (kCol) volume.
#pragma once

#include "models/finegrain.hpp"
#include "models/graph_model.hpp"  // ModelRun
#include "partition/config.hpp"
#include "partition/hg/partitioner.hpp"
#include "sparse/csr.hpp"

namespace fghp::model {

/// Partitions hg::group(m.h, groupOf, numGroups) into K parts and adds the
/// partitioner's time and recovery counts to `run`.
part::HgResult partition_grouped(const FineGrainModel& m, const std::vector<idx_t>& groupOf,
                                 idx_t numGroups, idx_t K, const part::PartitionConfig& cfg,
                                 ModelRun& run);

/// 1D hypergraph model end to end: kRow partitions rows (column-net model,
/// 1D rowwise), kCol partitions columns (row-net model, 1D columnwise).
/// Vectors are conformal: owner(x_j) = owner(y_j) = the part of line j.
ModelRun run_hypergraph1d(const sparse::Csr& a, idx_t K, const part::PartitionConfig& cfg,
                          Line line);

}  // namespace fghp::model
