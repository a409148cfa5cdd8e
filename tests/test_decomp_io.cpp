// Decomposition serialization round-trips, corruption detection (version-2
// checksums), and malformed-input diagnostics.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "models/decomp_io.hpp"
#include "models/finegrain.hpp"
#include "sparse/generators.hpp"
#include "util/error.hpp"

namespace fghp::model {
namespace {

Decomposition sample(const sparse::Csr& a, idx_t K, std::uint64_t seed) {
  part::PartitionConfig cfg;
  cfg.seed = seed;
  return run_finegrain(a, K, cfg).decomp;
}

TEST(DecompIo, RoundTripStream) {
  const sparse::Csr a = sparse::random_square(80, 5, 1);
  const Decomposition d = sample(a, 6, 2);
  std::ostringstream out;
  write_decomposition(out, d);
  std::istringstream in(out.str());
  const Decomposition e = read_decomposition(in);
  EXPECT_EQ(e.numProcs, d.numProcs);
  EXPECT_EQ(e.nnzOwner, d.nnzOwner);
  EXPECT_EQ(e.xOwner, d.xOwner);
  EXPECT_EQ(e.yOwner, d.yOwner);
  EXPECT_NO_THROW(validate(a, e));
}

TEST(DecompIo, RoundTripFile) {
  const sparse::Csr a = sparse::random_square(40, 4, 3);
  const Decomposition d = sample(a, 4, 4);
  const std::string path = ::testing::TempDir() + "/fghp_decomp_roundtrip.txt";
  write_decomposition_file(path, d);
  const Decomposition e = read_decomposition_file(path);
  EXPECT_EQ(e.nnzOwner, d.nnzOwner);
}

TEST(DecompIo, AsymmetricVectorsSurvive) {
  const sparse::Csr a = sparse::random_square(30, 4, 5);
  Decomposition d = sample(a, 3, 6);
  d.yOwner[0] = (d.yOwner[0] + 1) % 3;  // break symmetry deliberately
  std::ostringstream out;
  write_decomposition(out, d);
  std::istringstream in(out.str());
  const Decomposition e = read_decomposition(in);
  EXPECT_EQ(e.yOwner, d.yOwner);
  EXPECT_FALSE(symmetric_vectors(e));
}

Decomposition parse(const std::string& text) {
  std::istringstream in(text);
  return read_decomposition(in);
}

TEST(DecompIo, RejectsMissingBanner) {
  EXPECT_THROW(parse("procs 2\nnnz 0\nvec 0\n"), std::runtime_error);
}

TEST(DecompIo, RejectsBadVersion) {
  EXPECT_THROW(parse("fghp-decomposition 9\nprocs 2\nnnz 0\nvec 0\n"), std::runtime_error);
}

TEST(DecompIo, RejectsOwnerOutOfRange) {
  EXPECT_THROW(parse("fghp-decomposition 1\nprocs 2\nnnz 1\n5\nvec 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse("fghp-decomposition 1\nprocs 2\nnnz 0\nvec 1\n0 7\n"),
               std::runtime_error);
}

TEST(DecompIo, RejectsTruncation) {
  EXPECT_THROW(parse("fghp-decomposition 1\nprocs 2\nnnz 3\n0\n1\n"), std::runtime_error);
}

TEST(DecompIo, HugeDeclaredCountsAreFormatErrors) {
  // A header count is untrusted until its entries are read: a huge one
  // followed by a single entry is a truncated file, not an allocation.
  EXPECT_THROW(parse("fghp-decomposition 2\nprocs 2\nnnz 2721474836486\n0\n"), FormatError);
  EXPECT_THROW(parse("fghp-decomposition 2\nprocs 2\nnnz 1\n0\nvec 2721474836486\n0 1\n"),
               FormatError);
}

TEST(DecompIo, ErrorMentionsLine) {
  try {
    parse("fghp-decomposition 1\nprocs 2\nnnz 1\nbogus\nvec 0\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

TEST(DecompIo, MissingFileThrows) {
  EXPECT_THROW(read_decomposition_file("/nonexistent/x.decomp"), std::runtime_error);
}

// ------------------------------------------------- corruption detection ----

std::string serialized(const Decomposition& d) {
  std::ostringstream out;
  write_decomposition(out, d);
  return out.str();
}

TEST(DecompIo, WritesVersion2WithChecksum) {
  const sparse::Csr a = sparse::random_square(20, 3, 11);
  const std::string text = serialized(sample(a, 2, 12));
  EXPECT_EQ(text.rfind("fghp-decomposition 2\n", 0), 0u);
  EXPECT_NE(text.find("\nchecksum "), std::string::npos);
}

TEST(DecompIo, BitFlippedOwnerFailsChecksum) {
  const sparse::Csr a = sparse::random_square(20, 3, 13);
  std::string text = serialized(sample(a, 2, 14));
  // Flip one owner digit in the body: 0 <-> 1 keeps the line parseable, so
  // only the checksum can catch it.
  const std::size_t body = text.find("nnz");
  const std::size_t pos = text.find_first_of("01", text.find('\n', body));
  ASSERT_NE(pos, std::string::npos);
  text[pos] = text[pos] == '0' ? '1' : '0';
  try {
    parse(text);
    FAIL() << "expected checksum failure";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(DecompIo, EditedProcCountFailsChecksum) {
  const sparse::Csr a = sparse::random_square(20, 3, 15);
  std::string text = serialized(sample(a, 4, 16));
  const std::size_t pos = text.find("procs 4");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 7, "procs 8");  // wrong K, individually plausible owners
  EXPECT_THROW(parse(text), FormatError);
}

TEST(DecompIo, WrongChecksumLineRejected) {
  const sparse::Csr a = sparse::random_square(20, 3, 17);
  std::string text = serialized(sample(a, 2, 18));
  const std::size_t pos = text.find("checksum ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 9] = text[pos + 9] == '0' ? '1' : '0';
  EXPECT_THROW(parse(text), FormatError);
}

TEST(DecompIo, TruncatedVersion2Rejected) {
  const sparse::Csr a = sparse::random_square(20, 3, 19);
  const std::string text = serialized(sample(a, 2, 20));
  // Cut in the middle of the body: both a missing checksum line and missing
  // owners must be flagged.
  EXPECT_THROW(parse(text.substr(0, text.size() / 2)), FormatError);
  // Cut just the checksum line off the end.
  const std::size_t pos = text.find("checksum ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_THROW(parse(text.substr(0, pos)), FormatError);
}

TEST(DecompIo, CorruptFileRoundTripThroughDisk) {
  const sparse::Csr a = sparse::random_square(30, 4, 21);
  const Decomposition d = sample(a, 3, 22);
  const std::string path = ::testing::TempDir() + "/fghp_decomp_corrupt.txt";
  write_decomposition_file(path, d);
  // Sanity: clean file reads back fine.
  EXPECT_NO_THROW(read_decomposition_file(path));
  // Corrupt one byte on disk.
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::size_t body = text.find("nnz");
  const std::size_t pos = text.find_first_of("0123456789", text.find('\n', body));
  ASSERT_NE(pos, std::string::npos);
  text[pos] = text[pos] == '9' ? '8' : '9';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(read_decomposition_file(path), FormatError);
}

TEST(DecompIo, Version1WithoutChecksumStillReads) {
  // Files written before the checksum existed must stay loadable.
  const Decomposition d =
      parse("fghp-decomposition 1\nprocs 2\nnnz 2\n0\n1\nvec 2\n0 0\n1 1\n");
  EXPECT_EQ(d.numProcs, 2);
  EXPECT_EQ(d.nnzOwner.size(), 2u);
}

TEST(DecompIo, TypedErrors) {
  EXPECT_THROW(parse("not a banner\n"), FormatError);
  EXPECT_THROW(read_decomposition_file("/nonexistent/x.decomp"), IoError);
}

TEST(DecompIo, ValidateCatchesMatrixMismatch) {
  const sparse::Csr a = sparse::random_square(30, 4, 7);
  const sparse::Csr b = sparse::random_square(31, 4, 8);
  const Decomposition d = sample(a, 4, 9);
  EXPECT_NO_THROW(validate(a, d));
  EXPECT_THROW(validate(b, d), std::invalid_argument);
}

}  // namespace
}  // namespace fghp::model
