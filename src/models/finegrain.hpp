// The fine-grain hypergraph model for 2D decomposition — the paper's
// contribution (§3).
//
// One vertex per nonzero a_ij (unit weight; the atomic task
// y_i^j = a_ij * x_j). One row net m_i per row (pins: nonzeros of row i;
// models the fold of y_i) and one column net n_j per column (pins: nonzeros
// of column j; models the expand of x_j). The consistency condition
// "v_jj in pins[m_j] and pins[n_j]" is enforced by adding a zero-weight
// dummy vertex for every structurally-zero diagonal position, so a K-way
// partition decodes to owner(x_j) = owner(y_j) = part[v_jj] with the
// lambda-1 cutsize equal to the exact total communication volume.
#pragma once

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"
#include "models/graph_model.hpp"  // ModelRun
#include "partition/config.hpp"
#include "partition/geo/points.hpp"
#include "sparse/csr.hpp"

namespace fghp::model {

struct FineGrainModel {
  hg::Hypergraph h;

  /// Vertices [0, numRealVertices) map 1:1 to stored nonzeros in CSR entry
  /// order; vertices [numRealVertices, |V|) are zero-weight dummies.
  idx_t numRealVertices = 0;

  /// diagVertex[j] = the vertex playing v_jj (a real vertex if a_jj is
  /// stored, a dummy otherwise).
  std::vector<idx_t> diagVertex;

  /// Net layout: row net m_i is net i; column net n_j is net numRows + j.
  idx_t row_net(idx_t i) const { return i; }
  idx_t col_net(idx_t j) const { return numRows + j; }
  idx_t numRows = 0;
};

/// Builds the fine-grain hypergraph of a square matrix (|V| = Z + #missing
/// diagonals, |N| = 2M).
FineGrainModel build_finegrain(const sparse::Csr& a);

/// The matrix line a grouping merges fine-grain vertices along.
enum class Line { kRow, kCol };

/// The row (kRow) or column (kCol) of every fine-grain vertex's nonzero; the
/// dummy v_jj lies on line j of either kind. hg::group(m.h, lines, n) is the
/// 1D column-net hypergraph for kRow and the row-net hypergraph for kCol.
std::vector<idx_t> vertex_lines(const sparse::Csr& a, const FineGrainModel& m, Line line);

/// Decodes a complete K-way partition of the fine-grain hypergraph:
/// proc(a_ij) = part[v_ij], owner(x_j) = owner(y_j) = part[v_jj].
Decomposition decode_finegrain(const sparse::Csr& a, const FineGrainModel& m,
                               const hg::Partition& p);

/// The fine-grain model as a weighted 2D point set — the substrate of the
/// fast-path partitioners (--method geometric / geometric-fm). Point v sits at
/// (row, col) of nonzero a_ij with unit weight; zero-weight dummy points at
/// (j, j) cover missing diagonals. Vertex ids (CSR entry order, dummies
/// appended in diagonal order) are IDENTICAL to build_finegrain's, so a
/// point partition drops onto the hypergraph — and decodes — unchanged, and
/// the point set's coordinate lines are exactly the m_i / n_j nets.
struct FineGrainPoints {
  part::geo::GeoPoints pts;
  idx_t numRealVertices = 0;      ///< = nnz; [nnz, |V|) are dummies
  std::vector<idx_t> diagVertex;  ///< diagVertex[j] = the vertex playing v_jj
};

/// Builds the point-set form without materializing the hypergraph (O(Z + n),
/// no pin lists — the whole reason the fast paths are fast).
FineGrainPoints build_finegrain_points(const sparse::Csr& a);

/// Decodes a complete K-way point partition (same owner rule as above).
Decomposition decode_finegrain(const sparse::Csr& a, const FineGrainPoints& m,
                               const part::geo::GeoPartition& p);

/// Fine-grain 2D model end to end. Dispatches on cfg.method: the multilevel
/// hypergraph stack (paper quality), recursive geometric splits, or geometric
/// plus one K-way FM sweep (see DESIGN.md §15).
/// The fast paths always optimize — and report — the lambda-1 connectivity
/// objective (which for this model is the exact communication volume).
ModelRun run_finegrain(const sparse::Csr& a, idx_t K, const part::PartitionConfig& cfg);

}  // namespace fghp::model
