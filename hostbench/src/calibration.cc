#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>

namespace viewmat::hostbench {
namespace {
// The kernels are built from two parts, chosen by timing candidate
// kernels next to the engine over many of this host's speed phases and
// fitting the log-log slope of engine time against kernel time (1 = the
// kernel slows exactly as much as the engine):
//  - Heap churn of short strings, too long for the small-string buffer,
//    the allocation pattern of the engine's tuples. Slope 0.9-1.0 on the
//    direct workloads, but 1.45 on the wire workload: in phases of heavy
//    memory contention the wire path slows far more than the churn.
//  - Random 4 KiB block copies across a 16 MiB arena, the page traffic of
//    the simulated disk. One part churn to two parts copies (by time)
//    brings the wire workload to slope 1.1; on the direct workloads mixing
//    in copies spread their calibrated figures more than churn alone did.
// Ordered-map churn, sorting and hashing tracked the engine less well.
constexpr int kHeapIterations = 3000;
constexpr int kStringsPerIteration = 4;
constexpr size_t kBlockBytes = 4096;
constexpr size_t kArenaBytes = size_t{16} << 20;
constexpr int kBlockCopies = 1024;

volatile uint64_t g_sink = 0;

uint64_t HeapChurn() {
  uint64_t sum = 0;
  std::vector<std::string> strings;
  for (int i = 0; i < kHeapIterations; ++i) {
    strings.clear();
    strings.shrink_to_fit();
    strings.reserve(kStringsPerIteration);
    for (int j = 0; j < kStringsPerIteration; ++j) {
      strings.emplace_back(40 + j, static_cast<char>('a' + (i + j) % 26));
    }
    sum += strings[i % kStringsPerIteration].size() +
           static_cast<uint64_t>(strings[0][3]);
  }
  return sum;
}

/// The copy arena, allocated and touched on first use.
std::vector<uint8_t>& Arena() {
  static std::vector<uint8_t> arena(kArenaBytes, 1);
  return arena;
}

uint64_t PageCopies() {
  std::vector<uint8_t>& arena = Arena();
  uint8_t block[kBlockBytes];
  static uint64_t x = 0x9e3779b97f4a7c15ULL;  // fresh blocks every tick
  uint64_t sum = 0;
  for (int i = 0; i < kBlockCopies; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const size_t from = ((x >> 20) % (kArenaBytes / kBlockBytes)) * kBlockBytes;
    const size_t to = (from + 2 * kBlockBytes) % kArenaBytes;
    std::memcpy(block, arena.data() + from, kBlockBytes);
    std::memcpy(arena.data() + to, block, kBlockBytes);
    sum += block[x % kBlockBytes];
  }
  return sum;
}

/// The fixed kernel. Its work never changes, so its duration measures the
/// machine, not the program.
uint64_t Kernel(CalibrationKernel kernel) {
  const uint64_t first = HeapChurn();
  return first + (kernel == CalibrationKernel::kHeapAndPages ? PageCopies()
                                                             : HeapChurn());
}

}  // namespace

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Calibrator::Calibrator(CalibrationKernel kernel) : kernel_(kernel) {
  // Fault the arena in now, so the first tick does not pay for it.
  if (kernel_ == CalibrationKernel::kHeapAndPages) Arena();
}

double Calibrator::ref_kernel_ns() const {
  return kernel_ == CalibrationKernel::kHeapAndPages ? 1.15e6 : 6.5e5;
}

void Calibrator::Tick() {
  const AllocCounts a0 = AllocSnapshot();
  const double t0 = NowNs();
  g_sink = g_sink + Kernel(kernel_);
  const double t1 = NowNs();
  const double dt = t1 - t0;
  kernel_allocs_ += AllocSnapshot() - a0;
  start_ns_.push_back(t0);
  end_ns_.push_back(t1);
  kernel_ns_.push_back(dt);
  total_kernel_ns_ += dt;
}

double Calibrator::Factor(size_t slice) const {
  if (kernel_ns_.empty()) return 1.0;
  const size_t a = std::min(slice, kernel_ns_.size() - 1);
  const size_t b = std::min(slice + 1, kernel_ns_.size() - 1);
  return ref_kernel_ns() / (0.5 * (kernel_ns_[a] + kernel_ns_[b]));
}

double Calibrator::MedianKernelNs() const { return Quantile(kernel_ns_, 0.5); }

double Calibrator::KernelSpread() const {
  const double median = MedianKernelNs();
  if (median <= 0.0) return 0.0;
  return (Quantile(kernel_ns_, 0.75) - Quantile(kernel_ns_, 0.25)) / median;
}

std::vector<bool> Calibrator::TrustedSlices() const {
  const size_t slices = kernel_ns_.empty() ? 0 : kernel_ns_.size() - 1;
  std::vector<double> disagreement(slices);
  for (size_t i = 0; i < slices; ++i) {
    const double a = kernel_ns_[i];
    const double b = kernel_ns_[i + 1];
    disagreement[i] = std::abs(a - b) / std::min(a, b);
  }
  std::vector<bool> keep(slices);
  size_t kept = 0;
  for (size_t i = 0; i < slices; ++i) {
    keep[i] = disagreement[i] <= kMaxTickDisagreement;
    kept += keep[i];
  }
  if (2 * kept < slices) {
    std::vector<size_t> order(slices);
    for (size_t i = 0; i < slices; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return disagreement[x] < disagreement[y];
    });
    for (size_t rank = 0; rank < slices; ++rank) {
      keep[order[rank]] = 2 * rank < slices;
    }
  }
  return keep;
}

double Calibrator::RawSpanNs() const {
  double total = 0.0;
  for (size_t i = 0; i + 1 < start_ns_.size(); ++i) {
    total += start_ns_[i + 1] - end_ns_[i];
  }
  return total;
}

double Calibrator::ScaledSpanNs(const std::vector<bool>& keep) const {
  double total = 0.0;
  for (size_t i = 0; i + 1 < start_ns_.size(); ++i) {
    if (keep[i]) total += (start_ns_[i + 1] - end_ns_[i]) * Factor(i);
  }
  return total;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace viewmat::hostbench
