// fghp_tool's argument checks, run through the real binary: `partition` and
// `spgemm` reject an out-of-range --k before they read a matrix, and
// `partition` rejects a rectangular matrix before it partitions, all with
// the usage exit code 2.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace fghp {
namespace {

struct ToolRun {
  int exitCode = -1;
  std::string output;  ///< stdout and stderr
};

ToolRun run_tool(const std::string& args) {
  const std::string cmd = std::string(FGHP_TOOL_PATH) + " " + args + " 2>&1";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return {};
  ToolRun r;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, p)) > 0;) r.output.append(buf, n);
  const int status = pclose(p);
  if (WIFEXITED(status)) r.exitCode = WEXITSTATUS(status);
  return r;
}

TEST(ToolPartition, KOutsideRangeIsUsageErrorBeforeReadingTheMatrix) {
  // The matrix does not exist: reaching the reader would exit 3 (I/O).
  const std::string missing = ::testing::TempDir() + "fghp_tool_no_such.mtx";
  // 4294967298 = 2^32 + 2 must not narrow into K = 2.
  for (const char* cmd : {"partition", "spgemm"}) {
    for (const char* k : {"0", "-3", "4097", "5000", "4294967298"}) {
      const ToolRun r = run_tool(std::string(cmd) + " " + missing + " --k " + k);
      EXPECT_EQ(r.exitCode, 2) << cmd << " --k " << k << ": " << r.output;
      EXPECT_NE(r.output.find("--k must be in [1, 4096]"), std::string::npos) << r.output;
    }
  }
}

TEST(ToolPartition, RectangularMatrixIsUsageError) {
  const std::string mtx = ::testing::TempDir() + "fghp_tool_rect.mtx";
  {
    std::ofstream out(mtx);
    out << "%%MatrixMarket matrix coordinate real general\n3 4 3\n1 1 1.0\n2 3 2.0\n3 4 3.0\n";
  }
  const ToolRun rect = run_tool("partition " + mtx + " --k 2");
  EXPECT_EQ(rect.exitCode, 2) << rect.output;
  EXPECT_NE(rect.output.find("matrix must be square"), std::string::npos) << rect.output;

  // The same checks let a valid request through.
  {
    std::ofstream out(mtx);
    out << "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n2 2 2.0\n3 3 3.0\n";
  }
  const ToolRun square = run_tool("partition " + mtx + " --k 2 --threads 1");
  EXPECT_EQ(square.exitCode, 0) << square.output;
  std::remove(mtx.c_str());
}

}  // namespace
}  // namespace fghp
