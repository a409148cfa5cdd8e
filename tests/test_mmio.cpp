// Matrix Market reader/writer tests, including symmetry expansion and
// malformed-input diagnostics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "sparse/convert.hpp"
#include "sparse/generators.hpp"
#include "sparse/mmio.hpp"
#include "sparse/testsuite.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace fghp::sparse {
namespace {

Csr parse(const std::string& text) {
  std::istringstream in(text);
  return read_matrix_market(in);
}

std::string to_text(const Csr& a) {
  std::ostringstream out;
  write_matrix_market(out, a);
  return out.str();
}

/// The lower triangle of a square matrix in symmetric or skew-symmetric
/// storage (the diagonal too unless `skew`).
std::string lower_text(const Csr& a, bool skew) {
  std::ostringstream body;
  body.precision(17);
  long count = 0;
  for (idx_t r = 0; r < a.num_rows(); ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] > r || (skew && cols[k] == r)) continue;
      body << (r + 1) << ' ' << (cols[k] + 1) << ' ' << vals[k] << '\n';
      ++count;
    }
  }
  return std::string("%%MatrixMarket matrix coordinate real ") +
         (skew ? "skew-symmetric\n" : "symmetric\n") + std::to_string(a.num_rows()) + ' ' +
         std::to_string(a.num_cols()) + ' ' + std::to_string(count) + '\n' + body.str();
}

/// The line number a FormatError names, or -1 if `text` parses.
long error_line(const std::string& text) {
  try {
    parse(text);
  } catch (const FormatError& e) {
    return e.context().line;
  }
  return -1;
}

TEST(Mmio, ReadsGeneralReal) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 4\n"
      "1 1 1.5\n"
      "1 3 -2\n"
      "2 2 3\n"
      "3 1 4\n");
  EXPECT_EQ(a.num_rows(), 3);
  EXPECT_EQ(a.nnz(), 4);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 1.5);
  EXPECT_TRUE(a.has_entry(0, 2));
  EXPECT_TRUE(a.has_entry(2, 0));
}

TEST(Mmio, ExpandsSymmetricStorage) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 2\n"
      "2 1 5\n"
      "3 3 1\n");
  EXPECT_EQ(a.nnz(), 4);  // (2,1) expands to (1,2)
  EXPECT_TRUE(a.has_entry(0, 1));
  EXPECT_DOUBLE_EQ(a.row_vals(0)[1], 5.0);
}

TEST(Mmio, ExpandsSkewSymmetric) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3\n");
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], -3.0);
  EXPECT_DOUBLE_EQ(a.row_vals(1)[0], 3.0);
}

TEST(Mmio, PatternFieldGetsUnitValues) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n");
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 1.0);
}

TEST(Mmio, IntegerField) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate integer general\n"
      "1 1 1\n"
      "1 1 7\n");
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 7.0);
}

TEST(Mmio, RejectsMissingBanner) {
  EXPECT_THROW(parse("1 1 0\n"), std::runtime_error);
}

TEST(Mmio, RejectsArrayFormat) {
  EXPECT_THROW(parse("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"),
               std::runtime_error);
}

TEST(Mmio, RejectsComplexField) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"),
               std::runtime_error);
}

TEST(Mmio, RejectsOutOfRangeIndex) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n"),
               std::runtime_error);
}

TEST(Mmio, RejectsUpperTriangleInSymmetric) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1\n"),
               std::runtime_error);
}

TEST(Mmio, RejectsTruncatedEntries) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n"),
               std::runtime_error);
}

TEST(Mmio, TruncatedErrorReportsShortfall) {
  try {
    parse("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("got 1 of 3"), std::string::npos) << e.what();
  }
}

TEST(Mmio, ReadsCrlfFiles) {
  // A Windows-saved file: every line ends in \r\n, including a blank line
  // and a comment between entries.
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real general\r\n"
      "% saved on Windows\r\n"
      "2 2 2\r\n"
      "1 1 1.5\r\n"
      "\r\n"
      "% interleaved comment\r\n"
      "2 2 -4\r\n");
  EXPECT_EQ(a.num_rows(), 2);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 1.5);
  EXPECT_DOUBLE_EQ(a.row_vals(1)[0], -4.0);
}

TEST(Mmio, CrlfRoundTrip) {
  const Csr a = random_square(30, 4, 9);
  std::ostringstream out;
  write_matrix_market(out, a);
  std::string crlf;
  for (char c : out.str()) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(parse(crlf), a);
}

TEST(Mmio, CrlfSymmetricStorage) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real symmetric\r\n"
      "2 2 2\r\n"
      "1 1 2\r\n"
      "2 1 5\r\n");
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_TRUE(a.has_entry(0, 1));
}

TEST(Mmio, DuplicateEntriesAccumulate) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 4\n"
      "1 1 2\n"
      "1 1 3.5\n"
      "2 3 1\n"
      "2 3 -1\n");
  EXPECT_EQ(a.nnz(), 2);  // duplicates merged, zero-sum entry kept as structural
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 5.5);
  EXPECT_DOUBLE_EQ(a.row_vals(1)[0], 0.0);
  // No duplicate column indices within a row.
  const auto cols = a.row_cols(0);
  EXPECT_EQ(cols.size(), 1u);
}

TEST(Mmio, DuplicateSymmetricEntriesAccumulateBothMirrors) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "2 1 3\n"
      "2 1 4\n");
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 7.0);  // (1,2) mirror
  EXPECT_DOUBLE_EQ(a.row_vals(1)[0], 7.0);  // (2,1)
}

TEST(Mmio, DuplicatePatternEntriesCollapseToUnit) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 3\n"
      "1 1\n"
      "1 1\n"
      "2 1\n");
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 1.0);  // not 2.0
  EXPECT_DOUBLE_EQ(a.row_vals(1)[0], 1.0);
}

TEST(Mmio, TrailingBlankAndCommentLinesOk) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1\n"
      "2 2 2\n"
      "\n"
      "   \n"
      "% trailing comment\n");
  EXPECT_EQ(a.nnz(), 2);
}

TEST(Mmio, ErrorMentionsLineNumber) {
  try {
    parse("%%MatrixMarket matrix coordinate real general\n2 2 1\nbogus\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Mmio, WriteReadRoundTrip) {
  const Csr a = random_square(40, 5, 77);
  std::ostringstream out;
  write_matrix_market(out, a);
  const Csr b = parse(out.str());
  EXPECT_EQ(a, b);
}

TEST(Mmio, RoundTripPreservesValuesExactly) {
  Coo coo(2, 2);
  coo.add(0, 0, 1.0 / 3.0);
  coo.add(1, 1, -2.718281828459045);
  const Csr a = to_csr(std::move(coo));
  std::ostringstream out;
  write_matrix_market(out, a);
  const Csr b = parse(out.str());
  EXPECT_DOUBLE_EQ(b.row_vals(0)[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(b.row_vals(1)[0], -2.718281828459045);
}

TEST(Mmio, FileRoundTrip) {
  const Csr a = random_square(25, 4, 123);
  const std::string path = ::testing::TempDir() + "/fghp_roundtrip.mtx";
  write_matrix_market_file(path, a);
  EXPECT_EQ(read_matrix_market_file(path), a);
}

TEST(Mmio, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/dir/x.mtx"), std::runtime_error);
}

// -------------------------------------------- typed errors + bad values ----

TEST(Mmio, RejectsNanValue) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n"),
               FormatError);
}

TEST(Mmio, RejectsInfValue) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 inf\n"),
               FormatError);
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 -inf\n"),
               FormatError);
}

TEST(Mmio, RejectsZeroAndNegativeIndices) {
  // Matrix Market indices are 1-based; 0 and negatives are malformed, and
  // the message must say so rather than report a generic range error.
  try {
    parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n");
    FAIL() << "expected throw";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("positive"), std::string::npos) << e.what();
  }
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 -3 1\n"),
               FormatError);
}

TEST(Mmio, RejectsNegativeSizeLine) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n-2 2 1\n1 1 1\n"),
               FormatError);
}

TEST(Mmio, FormatErrorCarriesContext) {
  try {
    parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n");
    FAIL() << "expected throw";
  } catch (const FormatError& e) {
    EXPECT_EQ(e.context().line, 3);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Mmio, MissingFileThrowsIoErrorWithPath) {
  try {
    read_matrix_market_file("/nonexistent/dir/x.mtx");
    FAIL() << "expected throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.context().path, "/nonexistent/dir/x.mtx");
  }
}

TEST(Mmio, InjectedEntryFaultHitsExactEntry) {
  const std::string text =
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 3\n1 1 1\n2 2 2\n3 3 3\n";
  fault::ScopedSpec spec("mmio.read:2");
  try {
    parse(text);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.context().part, 2);  // second entry, deterministic
  }
}

// ---------------------------------------------------- pinned round trips ----

TEST(MmioPin, AllFourteenAnalogsRoundTrip) {
  for (const std::string& name : suite_names()) {
    const Csr a = make_matrix(name, 1, 0.1);
    EXPECT_EQ(parse(to_text(a)), a) << name;
  }
}

TEST(MmioPin, SymmetricSkewAndPatternCopiesOfAnAnalog) {
  const Csr a = make_matrix("sherman3", 1, 0.1);
  const Csr sym = symmetrized_pattern(a);  // values summed: exactly symmetric
  EXPECT_EQ(parse(lower_text(sym, false)), sym);

  // Skew: the strict lower triangle, mirrored with its sign flipped.
  Coo skew(sym.num_rows(), sym.num_cols());
  for (idx_t r = 0; r < sym.num_rows(); ++r) {
    const auto cols = sym.row_cols(r);
    const auto vals = sym.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] < r) {
        skew.add(r, cols[k], vals[k]);
        skew.add(cols[k], r, -vals[k]);
      }
    }
  }
  const Csr skewCsr = to_csr(std::move(skew));
  EXPECT_EQ(parse(lower_text(skewCsr, true)), skewCsr);

  // Pattern: the same structure with unit values.
  std::string pattern = to_text(a);
  pattern.replace(pattern.find("real"), 4, "pattern");
  const Csr p = parse(pattern);
  ASSERT_EQ(p.row_ptr(), a.row_ptr());
  EXPECT_EQ(p.col_ind(), a.col_ind());
  for (double v : p.values()) ASSERT_EQ(v, 1.0);
}

TEST(MmioPin, FileSpanningSeveralReadChunks) {
  // ~4 MB of text: lines straddle every chunk boundary of the reader.
  const Csr a = random_square(30000, 6, 5);
  const std::string text = to_text(a);
  ASSERT_GT(text.size(), 3u << 20);
  EXPECT_EQ(parse(text), a);
  const std::string path = ::testing::TempDir() + "/fghp_chunks.mtx";
  write_matrix_market_file(path, a);
  EXPECT_EQ(read_matrix_market_file(path), a);
  std::remove(path.c_str());
}

TEST(MmioPin, CommentLineLongerThanOneChunk) {
  const std::string longComment = "%" + std::string(3u << 20, 'c') + "\n";
  const std::string text = "%%MatrixMarket matrix coordinate real general\n" + longComment +
                           "2 2 2\n1 1 1.5\n" + longComment + "2 2 -4\n" + longComment;
  const Csr a = parse(text);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_EQ(a.values(), (std::vector<double>{1.5, -4.0}));
  // Line numbers count every line, however long.
  EXPECT_EQ(error_line("%%MatrixMarket matrix coordinate real general\n" + longComment +
                       "2 2 1\n" + longComment + "bogus\n"),
            5);
}

TEST(MmioPin, NumberSpellings) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 7\n"
      "1 1 +1.5\n"
      "1 2 1E-5\n"
      "1 3 -0\n"
      "2 1 007.25\n"
      "02 002 0.000125\n"
      "3 1 1e-400\n"  // underflows to zero, as IEEE rounding says
      "3 3 .5\n");
  ASSERT_EQ(a.nnz(), 7);
  EXPECT_EQ(a.values(), (std::vector<double>{1.5, 1e-5, 0.0, 7.25, 0.000125, 0.0, 0.5}));
  EXPECT_TRUE(std::signbit(a.values()[2]));  // -0 keeps its sign
  EXPECT_EQ(a.col_ind(), (std::vector<idx_t>{0, 1, 2, 0, 1, 0, 2}));
  EXPECT_EQ(error_line("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e400\n"), 3);
}

// ------------------------------------------ new behaviour of the reader ----

TEST(MmioNewBehaviour, DuplicatesSumInFileOrder) {
  // 1e16 + 1 rounds back to 1e16, so this sum depends on its order. The
  // reader sums in file order: (1e16 + 1) - 1e16 == 0; the order used to
  // be whatever std::sort left.
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 4\n"
      "1 1 1e16\n"
      "2 2 1\n"
      "1 1 1\n"
      "1 1 -1e16\n");
  ASSERT_EQ(a.nnz(), 2);
  EXPECT_EQ(a.values()[0], 0.0);
  const Csr b = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "1 1 3\n"
      "1 1 1\n"
      "1 1 1e16\n"
      "1 1 -1e16\n");
  EXPECT_EQ(b.values()[0], 0.0);  // (1 + 1e16) - 1e16
  const Csr c = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "1 1 3\n"
      "1 1 1e16\n"
      "1 1 -1e16\n"
      "1 1 1\n");
  EXPECT_EQ(c.values()[0], 1.0);  // (1e16 - 1e16) + 1
}

TEST(MmioNewBehaviour, HexFloatIsMalformed) {
  // strtod accepted hexadecimal floats; std::from_chars in general format
  // does not, and it ignores the C locale.
  try {
    parse("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0x1p3\n");
    FAIL() << "expected throw";
  } catch (const FormatError& e) {
    EXPECT_EQ(e.context().line, 3);
    EXPECT_NE(std::string(e.what()).find("malformed value '0x1p3'"), std::string::npos)
        << e.what();
  }
}

// ----------------------------------------------- size-line narrowing ----

TEST(Mmio, SizeLineWiderThanAnIndexIsFormatError) {
  // 4294967298 = 2^32 + 2 used to narrow to 2 without a check.
  const std::string banner = "%%MatrixMarket matrix coordinate real general\n";
  EXPECT_EQ(error_line(banner + "4294967298 4294967298 1\n1 1 1.0\n"), 2);
  EXPECT_EQ(error_line(banner + "4294967298 2 1\n3 1 1.0\n"), 2);
  EXPECT_EQ(error_line(banner + "2 4294967298 1\n1 3 1.0\n"), 2);
  EXPECT_EQ(error_line(banner + "2 2 4294967298\n1 1 1.0\n"), 2);
  EXPECT_EQ(error_line(banner + "% note\n2147483648 1 1\n1 1 1.0\n"), 3);
  EXPECT_EQ(error_line(banner + "1 1 99999999999999999999\n1 1 1.0\n"), 2);
}

TEST(Mmio, InjectedOpenFaultBeatsFileAccess) {
  fault::ScopedSpec spec("mmio.open");
  EXPECT_THROW(read_matrix_market_file("/nonexistent/dir/x.mtx"), FaultError);
}

}  // namespace
}  // namespace fghp::sparse
