#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long> g_allocCount{0};

void* counted_malloc(std::size_t sz) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

long fghp::test::allocation_count() { return g_allocCount.load(std::memory_order_relaxed); }

void* operator new(std::size_t sz) { return counted_malloc(sz); }
void* operator new[](std::size_t sz) { return counted_malloc(sz); }
// The nothrow forms (std::stable_sort's buffer) are freed through the plain
// deletes below, so they must come from malloc too.
void* operator new(std::size_t sz, const std::nothrow_t&) noexcept {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(sz ? sz : 1);
}
void* operator new[](std::size_t sz, const std::nothrow_t& t) noexcept {
  return operator new(sz, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
