// Replaces the global operator new so every allocation in the process is
// counted. The array and nothrow forms of new and delete in libstdc++
// forward to these. The counters are thread-local: the
// benchmark drives the engine from one thread, and a thread-local
// increment costs far less than the allocation itself.
#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace viewmat::hostbench {
namespace {

thread_local uint64_t tls_count = 0;
thread_local uint64_t tls_bytes = 0;

}  // namespace

AllocCounts AllocSnapshot() { return {tls_count, tls_bytes}; }

}  // namespace viewmat::hostbench

void* operator new(std::size_t size) {
  ++viewmat::hostbench::tls_count;
  viewmat::hostbench::tls_bytes += size;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
