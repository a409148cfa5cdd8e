#include "sparse/mmio.hpp"

#include <algorithm>
#include <cctype>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace fghp::sparse {

namespace {

constexpr std::size_t kChunk = std::size_t{1} << 20;
constexpr long long kMaxIdx = std::numeric_limits<idx_t>::max();

[[noreturn]] void fail(const std::string& path, long line, const std::string& what) {
  ErrorContext ctx;
  ctx.path = path;
  ctx.line = line;
  throw FormatError("MatrixMarket parse error at line " + std::to_string(line) + ": " + what,
                    std::move(ctx));
}

std::string lower(std::string_view v) {
  std::string s(v);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Splits a stream into lines through one fixed-size buffer: a chunk is
/// read behind the partial last line of the one before. Only a line longer
/// than the buffer grows it.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in), buf_(kChunk) {}

  /// The next line without its '\n' or a trailing '\r', so CRLF files parse
  /// like LF files; false at end of input. The view lives until the next call.
  bool next(std::string_view& line) {
    for (;;) {
      const char* begin = buf_.data() + pos_;
      if (const void* nl = std::memchr(begin, '\n', end_ - pos_)) {
        const auto len = static_cast<std::size_t>(static_cast<const char*>(nl) - begin);
        line = {begin, len};
        pos_ += len + 1;
        break;
      }
      if (eof_) {
        if (pos_ == end_) return false;
        line = {begin, end_ - pos_};
        pos_ = end_;
        break;
      }
      refill();
    }
    ++lineNo_;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return true;
  }

  /// 1-based number of the line next() returned last.
  long line_no() const { return lineNo_; }

 private:
  void refill() {
    const std::size_t carry = end_ - pos_;
    std::memmove(buf_.data(), buf_.data() + pos_, carry);
    pos_ = 0;
    end_ = carry;
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    in_.read(buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
    eof_ = !in_;  // a short read: end of input, or a read error that ends it
  }

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  ///< start of the unread bytes
  std::size_t end_ = 0;  ///< end of the bytes read so far
  bool eof_ = false;
  long lineNo_ = 0;
};

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'; }

bool blank_or_comment(std::string_view line) {
  if (line.empty() || line[0] == '%') return true;
  return std::all_of(line.begin(), line.end(), is_blank);
}

/// Removes and returns the next blank-separated token (empty at line end).
std::string_view next_token(std::string_view& rest) {
  std::size_t b = 0;
  while (b < rest.size() && is_blank(rest[b])) ++b;
  std::size_t e = b;
  while (e < rest.size() && !is_blank(rest[e])) ++e;
  const std::string_view tok = rest.substr(b, e - b);
  rest.remove_prefix(e);
  return tok;
}

/// Skips blanks, then one leading '+' (which strtod and operator>> accepted
/// and std::from_chars does not) unless another sign follows it.
const char* number_start(std::string_view rest) {
  const char* p = rest.data();
  const char* e = p + rest.size();
  while (p < e && is_blank(*p)) ++p;
  if (e - p > 1 && *p == '+' && p[1] != '-' && p[1] != '+') ++p;
  return p;
}

bool token_ends_at(const char* p, std::string_view rest) {
  return p == rest.data() + rest.size() || is_blank(*p);
}

/// Reads the next blank-separated token of `rest` as a decimal integer and
/// drops it from `rest`; false if it is malformed or wider than a long long.
bool parse_int(std::string_view& rest, long long& v) {
  const char* b = number_start(rest);
  const auto [p, ec] = std::from_chars(b, rest.data() + rest.size(), v);
  if (ec != std::errc{} || !token_ends_at(p, rest)) return false;
  rest.remove_prefix(static_cast<std::size_t>(p - rest.data()));
  return true;
}

enum class Value { kOk, kMissing, kMalformed, kNonFinite };

/// Reads the next token of `rest` as a decimal double, or "inf"/"nan"
/// (non-finite). A magnitude past a double's range is non-finite if it
/// overflows and rounds to zero if it underflows, as strtod rounds it.
Value parse_value(std::string_view rest, double& v) {
  const char* b = number_start(rest);
  const char* e = rest.data() + rest.size();
  if (b == e) return Value::kMissing;
  const auto [p, ec] = std::from_chars(b, e, v);
  if (!token_ends_at(p, rest) || (ec != std::errc{} && ec != std::errc::result_out_of_range))
    return Value::kMalformed;
  if (ec == std::errc::result_out_of_range) {
    long double wide = 0.0L;
    if (std::from_chars(b, p, wide).ec != std::errc{} || std::fabs(wide) > DBL_MAX)
      return Value::kNonFinite;
    v = static_cast<double>(wide);
  }
  return std::isfinite(v) ? Value::kOk : Value::kNonFinite;
}

/// One entry as the file gives it; symmetric mirrors are added in the CSR
/// build.
struct Staged {
  idx_t row;
  idx_t col;
  double value;
};

/// What the parse pass hands to the CSR build.
struct Parsed {
  long long rows = 0;
  long long cols = 0;
  long sizeLine = 0;
  bool pattern = false;
  bool mirrored = false;  ///< symmetric or skew-symmetric storage
  bool skew = false;
  long long stored = 0;  ///< entries after symmetric expansion
  std::vector<Staged> entries;
};

/// The header and the entries, checked line by line. The line buffer is
/// freed before the CSR build allocates.
Parsed parse(std::istream& in, const std::string& path) {
  LineReader lines(in);
  std::string_view line;

  if (!lines.next(line)) fail(path, 1, "empty input");
  std::string_view rest = line;
  const std::string_view tag = next_token(rest);
  const std::string object = lower(next_token(rest));
  const std::string format = lower(next_token(rest));
  const std::string field = lower(next_token(rest));
  const std::string symmetry = lower(next_token(rest));
  const long bannerLine = lines.line_no();
  if (tag != "%%MatrixMarket") fail(path, bannerLine, "missing %%MatrixMarket banner");
  if (object != "matrix") fail(path, bannerLine, "unsupported object '" + object + "'");
  if (format != "coordinate") fail(path, bannerLine, "only coordinate format is supported");
  const bool pattern = field == "pattern";
  if (field != "real" && field != "integer" && field != "pattern")
    fail(path, bannerLine, "unsupported field '" + field + "'");
  const bool symmetric = symmetry == "symmetric";
  const bool skew = symmetry == "skew-symmetric";
  if (!symmetric && !skew && symmetry != "general")
    fail(path, bannerLine, "unsupported symmetry '" + symmetry + "'");
  const bool mirrored = symmetric || skew;

  // Skip comments / blank lines until the size line.
  long long rows = -1, cols = -1, declared = -1;
  bool haveSize = false;
  while (lines.next(line)) {
    if (blank_or_comment(line)) continue;
    rest = line;
    if (!parse_int(rest, rows) || !parse_int(rest, cols) || !parse_int(rest, declared))
      fail(path, lines.line_no(), "malformed size line");
    haveSize = true;
    break;
  }
  if (!haveSize) fail(path, lines.line_no(), "missing size line");
  const long sizeLine = lines.line_no();
  if (rows < 0 || cols < 0 || declared < 0)
    fail(path, sizeLine, "size line entries must be non-negative");
  if (rows > kMaxIdx || cols > kMaxIdx || declared > kMaxIdx)
    fail(path, sizeLine, "size line entries must be at most " + std::to_string(kMaxIdx));
  if ((rows == 0 || cols == 0) && declared != 0)
    fail(path, sizeLine, "empty matrix cannot declare nonzeros");

  // Nothing is reserved from `declared`: a file that lies about its count
  // ends in the shortfall error below, not in a huge allocation.
  std::vector<Staged> staged;
  long long seen = 0;
  long long stored = 0;
  const bool faults = fault::enabled();
  while (seen < declared && lines.next(line)) {
    if (blank_or_comment(line)) continue;
    const long lineNo = lines.line_no();
    if (faults) fault::check("mmio.read", seen + 1);
    rest = line;
    long long r = 0, c = 0;
    if (!parse_int(rest, r) || !parse_int(rest, c)) fail(path, lineNo, "malformed entry");
    double v = 1.0;
    if (!pattern) {
      const Value status = parse_value(rest, v);
      if (status == Value::kMissing) fail(path, lineNo, "missing value");
      if (status == Value::kMalformed)
        fail(path, lineNo, "malformed value '" + std::string(next_token(rest)) + "'");
      if (status == Value::kNonFinite) fail(path, lineNo, "non-finite value (NaN or Inf)");
    }
    if (r < 1 || c < 1) fail(path, lineNo, "indices must be positive (1-based)");
    if (r > rows || c > cols) fail(path, lineNo, "index out of range");
    const auto ri = static_cast<idx_t>(r - 1);
    const auto ci = static_cast<idx_t>(c - 1);
    if (mirrored && ci > ri) fail(path, lineNo, "upper-triangle entry in symmetric storage");
    if (skew && ci == ri) fail(path, lineNo, "diagonal entry in skew-symmetric storage");
    stored += (mirrored && ri != ci) ? 2 : 1;
    if (stored > kMaxIdx)
      fail(path, lineNo, "expanded entries exceed " + std::to_string(kMaxIdx));
    staged.push_back({ri, ci, v});
    ++seen;
  }
  if (seen != declared) {
    fail(path, lines.line_no(),
         "fewer entries than declared (got " + std::to_string(seen) + " of " +
             std::to_string(declared) + " before end of input)");
  }
  return {rows, cols, sizeLine, pattern, mirrored, skew, stored, std::move(staged)};
}

/// Counting sort by row into a CSR; duplicates sum in file order.
Csr build_csr(Parsed p, const std::string& path) {
  // The row pointer is the only allocation the header sizes; a size line
  // too large for memory is a format error of that line.
  std::vector<idx_t> rowPtr;
  try {
    rowPtr.resize(static_cast<std::size_t>(p.rows) + 1);
  } catch (const std::bad_alloc&) {
    fail(path, p.sizeLine,
         "cannot allocate the row pointer of " + std::to_string(p.rows) + " rows");
  }

  // Counting sort by row. While scattering, rowPtr[r + 1] is row r's
  // cursor; afterwards it is the row's end. Each row keeps file order.
  for (const Staged& t : p.entries) {
    ++rowPtr[static_cast<std::size_t>(t.row) + 1];
    if (p.mirrored && t.row != t.col) ++rowPtr[static_cast<std::size_t>(t.col) + 1];
  }
  idx_t start = 0;
  for (std::size_t r = 1; r < rowPtr.size(); ++r) {
    const idx_t count = rowPtr[r];
    rowPtr[r] = start;
    start += count;
  }
  std::vector<idx_t> colInd(static_cast<std::size_t>(p.stored));
  std::vector<double> values(static_cast<std::size_t>(p.stored));
  const auto place = [&](idx_t r, idx_t c, double v) {
    const auto k = static_cast<std::size_t>(rowPtr[static_cast<std::size_t>(r) + 1]++);
    colInd[k] = c;
    values[k] = v;
  };
  for (const Staged& t : p.entries) {
    place(t.row, t.col, t.value);
    if (p.mirrored && t.row != t.col) place(t.col, t.row, p.skew ? -t.value : t.value);
  }
  std::vector<Staged>().swap(p.entries);

  // Sort each row by column, stable so duplicate (r, c) entries sum in file
  // order, and compact the sums in place. Most files list each row in
  // column order, and such a row is only checked. Summed entries of 0.0 are
  // kept: structural zeros matter to the decomposition models.
  std::vector<std::pair<idx_t, double>> rowBuf;
  std::size_t out = 0;
  std::size_t b = 0;
  for (std::size_t r = 1; r < rowPtr.size(); ++r) {
    const auto e = static_cast<std::size_t>(rowPtr[r]);
    bool increasing = true;
    for (std::size_t k = b + 1; k < e && increasing; ++k) increasing = colInd[k - 1] < colInd[k];
    if (increasing) {
      if (out != b) {
        std::copy(colInd.begin() + b, colInd.begin() + e, colInd.begin() + out);
        std::copy(values.begin() + b, values.begin() + e, values.begin() + out);
      }
      out += e - b;
    } else {
      rowBuf.clear();
      for (std::size_t k = b; k < e; ++k) rowBuf.emplace_back(colInd[k], values[k]);
      std::stable_sort(rowBuf.begin(), rowBuf.end(),
                       [](const auto& x, const auto& y) { return x.first < y.first; });
      const std::size_t rowStart = out;
      for (const auto& [c, v] : rowBuf) {
        if (out > rowStart && colInd[out - 1] == c) {
          values[out - 1] += v;
        } else {
          colInd[out] = c;
          values[out++] = v;
        }
      }
    }
    rowPtr[r] = static_cast<idx_t>(out);
    b = e;
  }
  colInd.resize(out);
  values.resize(out);
  // Pattern files carry structure only: duplicates collapse to a single
  // unit entry instead of summing past 1 (sign kept for skew mirrors).
  if (p.pattern) {
    for (double& v : values) v = v < 0.0 ? -1.0 : 1.0;
  }
  return Csr(static_cast<idx_t>(p.rows), static_cast<idx_t>(p.cols), std::move(rowPtr),
             std::move(colInd), std::move(values));
}

}  // namespace

Csr read_matrix_market(std::istream& in, const std::string& path) {
  trace::TraceScope span("io", "mmio.parse");
  Parsed parsed = parse(in, path);
  const long long rows = parsed.rows;
  const auto entries = static_cast<long long>(parsed.entries.size());
  Csr a = build_csr(std::move(parsed), path);
  span.set_args("rows", rows, "entries", entries);
  static metrics::Counter& filesRead = metrics::counter("mmio.files_read");
  static metrics::Counter& entriesRead = metrics::counter("mmio.entries_read");
  filesRead.add();
  entriesRead.add(entries);
  return a;
}

Csr read_matrix_market_file(const std::string& path) {
  fault::check("mmio.open");
  std::ifstream in(path);
  if (!in) throw IoError("cannot open for reading: " + path, at_path(path));
  return read_matrix_market(in, path);
}

void write_matrix_market(std::ostream& out, const Csr& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by fghp\n";
  out << a.num_rows() << ' ' << a.num_cols() << ' ' << a.nnz() << '\n';
  std::ostringstream body;
  body.precision(17);
  for (idx_t r = 0; r < a.num_rows(); ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      body << (r + 1) << ' ' << (cols[k] + 1) << ' ' << vals[k] << '\n';
    }
  }
  out << body.str();
}

void write_matrix_market_file(const std::string& path, const Csr& a) {
  trace::TraceScope span("io", "mmio.write", "rows", a.num_rows(), "nnz", a.nnz());
  std::ofstream out(path);
  if (!out) throw IoError("cannot open for writing: " + path, at_path(path));
  write_matrix_market(out, a);
  out.flush();
  if (!out) throw IoError("write failed: " + path, at_path(path));
}

}  // namespace fghp::sparse
