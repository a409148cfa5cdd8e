#include "comm/volume.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/sparse_acc.hpp"

namespace fghp::comm {

namespace {

/// Per-column (or per-row) processor sets, built by bucketing nonzero owners.
/// groupOf[e] selects the bucket of CSR entry e.
std::vector<std::vector<idx_t>> owner_sets(idx_t numGroups, const std::vector<idx_t>& groupOf,
                                           const std::vector<idx_t>& ownerOf) {
  std::vector<std::vector<idx_t>> sets(static_cast<std::size_t>(numGroups));
  for (std::size_t e = 0; e < groupOf.size(); ++e) {
    sets[static_cast<std::size_t>(groupOf[e])].push_back(ownerOf[e]);
  }
  for (auto& s : sets) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }
  return sets;
}

}  // namespace

CommStats analyze(const sparse::Csr& a, const model::Decomposition& d) {
  model::validate(a, d);
  FGHP_REQUIRE(d.numProcs <= kMaxProcs, "analyze supports at most 4096 processors");
  const idx_t K = d.numProcs;
  const idx_t n = a.num_rows();

  CommStats s;
  s.numProcs = K;
  s.sendWords.assign(static_cast<std::size_t>(K), 0);
  s.recvWords.assign(static_cast<std::size_t>(K), 0);
  s.messagesHandled.assign(static_cast<std::size_t>(K), 0);

  // Bucket nonzero owners by row and by column.
  std::vector<idx_t> rowOf(static_cast<std::size_t>(a.nnz()));
  std::vector<idx_t> colOf(static_cast<std::size_t>(a.nnz()));
  {
    std::size_t e = 0;
    for (idx_t i = 0; i < n; ++i) {
      for (idx_t j : a.row_cols(i)) {
        rowOf[e] = i;
        colOf[e] = j;
        ++e;
      }
    }
  }
  const auto colProcs = owner_sets(a.num_cols(), colOf, d.nnzOwner);
  const auto rowProcs = owner_sets(n, rowOf, d.nnzOwner);

  // Dense per-phase message matrices (K <= kMaxProcs => at most 16M bytes each).
  std::vector<char> expandMsg(static_cast<std::size_t>(K) * static_cast<std::size_t>(K), 0);
  std::vector<char> foldMsg(static_cast<std::size_t>(K) * static_cast<std::size_t>(K), 0);
  auto at = [K](std::vector<char>& m, idx_t src, idx_t dst) -> char& {
    return m[static_cast<std::size_t>(src) * static_cast<std::size_t>(K) +
             static_cast<std::size_t>(dst)];
  };

  // Expand: owner(x_j) -> every remote processor holding a nonzero of col j.
  for (idx_t j = 0; j < a.num_cols(); ++j) {
    const idx_t owner = d.xOwner[static_cast<std::size_t>(j)];
    for (idx_t p : colProcs[static_cast<std::size_t>(j)]) {
      if (p == owner) continue;
      ++s.expandWords;
      ++s.sendWords[static_cast<std::size_t>(owner)];
      ++s.recvWords[static_cast<std::size_t>(p)];
      at(expandMsg, owner, p) = 1;
    }
  }

  // Fold: every remote contributor of row i -> owner(y_i).
  for (idx_t i = 0; i < n; ++i) {
    const idx_t owner = d.yOwner[static_cast<std::size_t>(i)];
    for (idx_t p : rowProcs[static_cast<std::size_t>(i)]) {
      if (p == owner) continue;
      ++s.foldWords;
      ++s.sendWords[static_cast<std::size_t>(p)];
      ++s.recvWords[static_cast<std::size_t>(owner)];
      at(foldMsg, p, owner) = 1;
    }
  }

  s.totalWords = s.expandWords + s.foldWords;
  for (idx_t p = 0; p < K; ++p) {
    s.maxProcWords = std::max(
        s.maxProcWords, s.sendWords[static_cast<std::size_t>(p)] +
                            s.recvWords[static_cast<std::size_t>(p)]);
  }

  for (idx_t src = 0; src < K; ++src) {
    for (idx_t dst = 0; dst < K; ++dst) {
      if (at(expandMsg, src, dst)) {
        ++s.expandMessages;
        ++s.messagesHandled[static_cast<std::size_t>(src)];
        ++s.messagesHandled[static_cast<std::size_t>(dst)];
      }
      if (at(foldMsg, src, dst)) {
        ++s.foldMessages;
        ++s.messagesHandled[static_cast<std::size_t>(src)];
        ++s.messagesHandled[static_cast<std::size_t>(dst)];
      }
    }
  }
  idx_t handledTotal = 0;
  for (idx_t p = 0; p < K; ++p) {
    handledTotal += s.messagesHandled[static_cast<std::size_t>(p)];
    s.maxMessagesPerProc =
        std::max(s.maxMessagesPerProc, s.messagesHandled[static_cast<std::size_t>(p)]);
  }
  s.avgMessagesPerProc = static_cast<double>(handledTotal) / static_cast<double>(K);
  return s;
}

}  // namespace fghp::comm
