#include "models/decomp_io.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace fghp::model {

namespace {

[[noreturn]] void fail(const std::string& path, long line, const std::string& what) {
  ErrorContext ctx;
  ctx.path = path;
  ctx.line = line;
  throw FormatError("decomposition parse error at line " + std::to_string(line) + ": " + what,
                    std::move(ctx));
}

/// FNV-1a over the decomposition's semantic content (counts + every owner
/// value), so any bit flip, truncation or count edit that survives the
/// per-line range checks is still caught by the trailing checksum line.
std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    h ^= (x >> (8 * b)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t content_checksum(const Decomposition& d) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, static_cast<std::uint64_t>(d.numProcs));
  h = mix(h, d.nnzOwner.size());
  for (idx_t p : d.nnzOwner) h = mix(h, static_cast<std::uint64_t>(p));
  h = mix(h, d.xOwner.size());
  for (std::size_t j = 0; j < d.xOwner.size(); ++j) {
    h = mix(h, static_cast<std::uint64_t>(d.xOwner[j]));
    h = mix(h, static_cast<std::uint64_t>(d.yOwner[j]));
  }
  return h;
}

}  // namespace

void write_decomposition(std::ostream& out, const Decomposition& d) {
  FGHP_REQUIRE(d.numProcs >= 1, "decomposition has no processors");
  FGHP_REQUIRE(d.xOwner.size() == d.yOwner.size(),
               "x/y owner maps must have equal length");
  fault::check("decomp.write");
  out << "fghp-decomposition 2\n";
  out << "procs " << d.numProcs << '\n';
  out << "nnz " << d.nnzOwner.size() << '\n';
  for (idx_t p : d.nnzOwner) out << p << '\n';
  out << "vec " << d.xOwner.size() << '\n';
  for (std::size_t j = 0; j < d.xOwner.size(); ++j)
    out << d.xOwner[j] << ' ' << d.yOwner[j] << '\n';
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(content_checksum(d)));
  out << "checksum " << hex << '\n';
}

void write_decomposition_file(const std::string& path, const Decomposition& d) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open for writing: " + path, at_path(path));
  write_decomposition(out, d);
  out.flush();
  if (!out) throw IoError("write failed: " + path, at_path(path));
}

Decomposition read_decomposition(std::istream& in, const std::string& path) {
  fault::check("decomp.read");
  long lineNo = 0;
  std::string line;
  auto next_line = [&]() -> std::string& {
    if (!std::getline(in, line)) fail(path, lineNo + 1, "unexpected end of input");
    ++lineNo;
    return line;
  };

  int version = 0;
  {
    std::istringstream banner(next_line());
    std::string magic;
    banner >> magic >> version;
    if (magic != "fghp-decomposition") fail(path, lineNo, "missing banner");
    if (version != 1 && version != 2)
      fail(path, lineNo, "unsupported version " + std::to_string(version));
  }

  Decomposition d;
  long z = -1;
  {
    std::istringstream hdr(next_line());
    std::string tag;
    long k = 0;
    if (!(hdr >> tag >> k) || tag != "procs" || k < 1) fail(path, lineNo, "bad procs line");
    d.numProcs = static_cast<idx_t>(k);
  }
  {
    std::istringstream hdr(next_line());
    std::string tag;
    if (!(hdr >> tag >> z) || tag != "nnz" || z < 0) fail(path, lineNo, "bad nnz line");
  }
  // No reserve from the declared counts: they are untrusted until the
  // entries are actually read.
  for (long e = 0; e < z; ++e) {
    std::istringstream es(next_line());
    long p;
    if (!(es >> p) || p < 0 || p >= d.numProcs) fail(path, lineNo, "owner out of range");
    d.nnzOwner.push_back(static_cast<idx_t>(p));
  }
  long m = -1;
  {
    std::istringstream hdr(next_line());
    std::string tag;
    if (!(hdr >> tag >> m) || tag != "vec" || m < 0) fail(path, lineNo, "bad vec line");
  }
  for (long j = 0; j < m; ++j) {
    std::istringstream vs(next_line());
    long x, y;
    if (!(vs >> x >> y) || x < 0 || x >= d.numProcs || y < 0 || y >= d.numProcs)
      fail(path, lineNo, "vector owner out of range");
    d.xOwner.push_back(static_cast<idx_t>(x));
    d.yOwner.push_back(static_cast<idx_t>(y));
  }
  if (version >= 2) {
    std::istringstream cs(next_line());
    std::string tag, hex;
    if (!(cs >> tag >> hex) || tag != "checksum") fail(path, lineNo, "missing checksum line");
    std::uint64_t declared = 0;
    std::size_t used = 0;
    try {
      declared = std::stoull(hex, &used, 16);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != hex.size()) fail(path, lineNo, "malformed checksum");
    if (declared != content_checksum(d))
      fail(path, lineNo, "checksum mismatch — file is corrupt or was edited");
  }
  return d;
}

Decomposition read_decomposition_file(const std::string& path) {
  fault::check("decomp.open");
  std::ifstream in(path);
  if (!in) throw IoError("cannot open for reading: " + path, at_path(path));
  return read_decomposition(in, path);
}

}  // namespace fghp::model
