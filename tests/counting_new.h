// Replaced global operator new/delete that count heap allocations, for tests
// that pin "allocates nothing" contracts and allocation budgets. The header
// defines the global operators, so include it in exactly one translation unit
// per test binary.
#ifndef TESTS_COUNTING_NEW_H_
#define TESTS_COUNTING_NEW_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// Allocations made through the global operator new so far in this process.
// Atomic because sweep tests allocate from worker threads too.
inline std::atomic<std::size_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

// The nothrow variant must be replaced too: libstdc++'s temporary buffers
// (e.g. stable_sort) allocate through it, and under ASan an unreplaced
// nothrow new paired with the replaced free-based delete is flagged as an
// alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// All global operators are replaced as a matched malloc/free set, but GCC's
// pairing analysis only sees free() applied to new-expression results.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

#endif  // TESTS_COUNTING_NEW_H_
