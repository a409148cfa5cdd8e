// Global allocation counter for the zero-allocation tests. A test binary
// that links alloc_counter.cpp replaces the global operator new / new[]
// (plain and nothrow) with counting versions over malloc. Counting every
// allocation in the binary is crude but exact: the tests measure windows
// that contain nothing but the code under test.
//
// The replacements live in their own translation unit so the compiler never
// sees a replaced operator new inlined next to the matching delete (which it
// would flag as a malloc/delete mismatch).
#pragma once

namespace fghp::test {

/// Global operator new / new[] calls made so far by this process.
long allocation_count();

}  // namespace fghp::test
