// fghp_tool's argument checks, run through the real binary: `partition` and
// `spgemm` reject an out-of-range --k before they read a matrix, and
// `partition` rejects a rectangular matrix before it partitions, all with
// the usage exit code 2, as is an option the command does not take. A Matrix
// Market size line too large to allocate is a format error (exit 4).
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

/// Runs a shell command line, capturing stdout and stderr.
ToolRun run_shell(const std::string& command) {
  const std::string cmd = command + " 2>&1";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return {};
  ToolRun r;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, p)) > 0;) r.output.append(buf, n);
  const int status = pclose(p);
  if (WIFEXITED(status)) r.exitCode = WEXITSTATUS(status);
  return r;
}

ToolRun run_tool(const std::string& args) {
  return run_shell(std::string(FGHP_TOOL_PATH) + " " + args);
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
    // Beyond even a long: still a usage error, and it names the flag.
    const ToolRun r = run_tool(std::string(cmd) + " " + missing + " --k 99999999999999999999");
    EXPECT_EQ(r.exitCode, 2) << cmd << ": " << r.output;
    EXPECT_NE(r.output.find("--k"), std::string::npos) << r.output;
  }
}

TEST(ToolOptions, UnknownOptionIsUsageError) {
  const std::string mtx = ::testing::TempDir() + "fghp_tool_opts.mtx";
  {
    std::ofstream out(mtx);
    out << "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n2 2 2.0\n3 3 3.0\n";
  }
  // A misspelt flag, an unknown switch, and a flag of another command.
  for (const char* args : {"--model finegrain --kk 8", "--k 2 --bogus", "--k 2 --reps 3"}) {
    const ToolRun r = run_tool("partition " + mtx + " " + args);
    EXPECT_EQ(r.exitCode, 2) << args << ": " << r.output;
    EXPECT_NE(r.output.find("unknown option --"), std::string::npos) << r.output;
  }
  const ToolRun stats = run_tool("stats " + mtx + " --k 2");
  EXPECT_EQ(stats.exitCode, 2) << stats.output;
  EXPECT_NE(stats.output.find("unknown option --k"), std::string::npos) << stats.output;

  // Every command's own flags and the observability flags still pass.
  const std::string metrics = ::testing::TempDir() + "fghp_tool_opts_metrics.json";
  const ToolRun ok = run_tool("partition " + mtx + " --model finegrain --k 2 --threads 1 " +
                              "--seed 3 --strict --metrics-out " + metrics);
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
  std::remove(metrics.c_str());
  std::remove(mtx.c_str());
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

TEST(ToolStats, SizeLineTooLargeToAllocateIsFormatError) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizers reserve their shadow memory up front, so an address-space "
                  "cap stops the tool before it starts";
#else
  // The row pointer of 2e9 rows needs 8 GB; under a 4 GB address-space cap
  // its allocation fails, and that failure names the size line.
  const std::string mtx = ::testing::TempDir() + "fghp_tool_big.mtx";
  {
    std::ofstream out(mtx);
    out << "%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 1\n1 1 1.0\n";
  }
  // The cap applies to the child shell and the tool it execs, not to this test.
  const ToolRun r = run_shell("sh -c 'ulimit -v 4000000; exec \"" +
                              std::string(FGHP_TOOL_PATH) + "\" stats " + mtx + "'");
  EXPECT_EQ(r.exitCode, 4) << r.output;
  EXPECT_NE(r.output.find("line 2"), std::string::npos) << r.output;
  std::remove(mtx.c_str());
#endif
}

}  // namespace
}  // namespace fghp
