// Matrix Market (.mtx) reader / writer.
//
// Supports the coordinate format with real / integer / pattern fields and
// general / symmetric / skew-symmetric symmetry (symmetric storage is
// expanded on read). This is the bridge to the *real* test matrices of the
// paper (University of Florida collection, netlib LP sets) when they are
// available; the bundled synthetic suite (sparse/testsuite.hpp) stands in
// for them offline.
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/csr.hpp"

namespace fghp::sparse {

/// Parses a Matrix Market stream. Throws fghp::FormatError with a
/// line-numbered message (and `path`, if given, as context) on malformed
/// input — including NaN/Inf values and non-positive indices.
///
/// One pass over a fixed-size read buffer; numbers are whole tokens read
/// with std::from_chars, so the result does not depend on the C locale and
/// hexadecimal floats such as `0x1p3` are malformed values (strtod used to
/// accept them). A leading '+' is accepted; tokens after the last field a
/// line needs are ignored. Duplicate (r, c) entries sum in file order.
///
/// Size line: rows, columns and the entry count must fit idx_t, and so
/// must the entry count after symmetric expansion. Nothing is reserved from
/// the declared count; the only allocation the header sizes is the row
/// pointer, and if it fails the error is a FormatError naming the size line.
Csr read_matrix_market(std::istream& in, const std::string& path = "");

/// Convenience file wrapper; throws fghp::IoError if unreadable.
Csr read_matrix_market_file(const std::string& path);

/// Writes `a` in coordinate/real/general form (1-based indices).
void write_matrix_market(std::ostream& out, const Csr& a);

/// Convenience file wrapper; throws fghp::IoError if unwritable.
void write_matrix_market_file(const std::string& path, const Csr& a);

}  // namespace fghp::sparse
