// Communication analysis of a decomposition: the exact expand/fold volumes,
// per-processor send/receive words, and message counts of one parallel
// y = Ax — the measured quantities of the paper's Table 2.
//
// Expand (pre-communication): owner(x_j) sends x_j to every processor that
// owns a nonzero in column j and is not the owner — one word per remote
// needer. Fold (post-communication): every processor owning a nonzero in
// row i and not owning y_i sends its partial y_i to owner(y_i) — one word
// per remote contributor. For partitions produced by the fine-grain model
// the total equals the lambda-1 cutsize (the paper's central claim, enforced
// by our tests).
#pragma once

#include <vector>

#include "models/decomposition.hpp"
#include "sparse/csr.hpp"

namespace fghp::comm {

struct CommStats {
  idx_t numProcs = 0;

  weight_t expandWords = 0;  ///< total words in the pre phase
  weight_t foldWords = 0;    ///< total words in the post phase
  weight_t totalWords = 0;   ///< expand + fold

  /// Per-processor words sent / received (both phases combined).
  std::vector<weight_t> sendWords;
  std::vector<weight_t> recvWords;
  /// max_p (sendWords[p] + recvWords[p]) — Table 2's "max" column.
  weight_t maxProcWords = 0;

  /// Directed messages (distinct (src, dst) pairs per phase).
  idx_t expandMessages = 0;
  idx_t foldMessages = 0;
  /// Messages handled (sent + received) per processor.
  std::vector<idx_t> messagesHandled;
  double avgMessagesPerProc = 0.0;  ///< Table 2's "avg #msgs"
  idx_t maxMessagesPerProc = 0;

  /// Volumes scaled by the number of rows/cols, as Table 2 reports them.
  double scaledTotal(idx_t numRows) const {
    return static_cast<double>(totalWords) / static_cast<double>(numRows);
  }
  double scaledMax(idx_t numRows) const {
    return static_cast<double>(maxProcWords) / static_cast<double>(numRows);
  }
};

/// Largest processor count analyze() supports: it keeps dense K x K
/// per-phase message matrices (at most 16M bytes each).
inline constexpr idx_t kMaxProcs = 4096;

/// Analyzes the decomposition. Requires numProcs <= kMaxProcs.
CommStats analyze(const sparse::Csr& a, const model::Decomposition& d);

}  // namespace fghp::comm
