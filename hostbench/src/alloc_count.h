#ifndef HOSTBENCH_ALLOC_COUNT_H_
#define HOSTBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace viewmat::hostbench {

/// Allocations made through the global operator new on the calling thread
/// since it started. The benchmark binary replaces operator new (see
/// alloc_count.cc), so the counts cover the library's allocations too.
struct AllocCounts {
  uint64_t count = 0;
  uint64_t bytes = 0;

  AllocCounts operator-(const AllocCounts& rhs) const {
    return {count - rhs.count, bytes - rhs.bytes};
  }
  AllocCounts& operator+=(const AllocCounts& rhs) {
    count += rhs.count;
    bytes += rhs.bytes;
    return *this;
  }
};

AllocCounts AllocSnapshot();

}  // namespace viewmat::hostbench

#endif  // HOSTBENCH_ALLOC_COUNT_H_
