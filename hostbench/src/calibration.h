#ifndef HOSTBENCH_CALIBRATION_H_
#define HOSTBENCH_CALIBRATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc_count.h"

namespace viewmat::hostbench {

/// Monotonic host time in nanoseconds.
double NowNs();

/// The fixed kernels a Calibrator can run; calibration.cc records how each
/// was chosen.
enum class CalibrationKernel {
  kHeap,          ///< heap churn of short strings
  kHeapAndPages,  ///< heap churn plus twice as long of 4 KiB block copies
};

/// The in-run machine-speed probe. The host this benchmark runs on changes
/// speed in phases that last from milliseconds to minutes, so raw wall time
/// does not repeat from one process to the next. A fixed kernel, calling
/// nothing in the library, runs between slices of the measured work; each
/// slice's host times are scaled by ref_kernel_ns() over the mean kernel
/// time at the slice's two ends. The scaled figures read as if the work ran
/// on a machine where the kernel takes exactly ref_kernel_ns().
class Calibrator {
 public:
  explicit Calibrator(CalibrationKernel kernel = CalibrationKernel::kHeap);

  /// The kernel's time on the reference machine (a quiet phase of a 4-vCPU
  /// x86-64 VM, GCC 12, -O2), so calibrated figures stay close to raw ones
  /// there.
  double ref_kernel_ns() const;
  /// Largest relative difference between a slice's two end ticks for its
  /// factor to be trusted.
  static constexpr double kMaxTickDisagreement = 0.10;

  /// Runs the kernel once, closing the current slice and opening the next.
  void Tick();

  /// Scale factor for host times measured inside slice `slice` (between
  /// Tick number `slice` and `slice + 1`).
  double Factor(size_t slice) const;
  /// Index of the slice currently open (ticks() - 1).
  size_t current_slice() const { return kernel_ns_.size() - 1; }
  size_t ticks() const { return kernel_ns_.size(); }

  /// Host time spent in the kernel so far, and the allocations it made
  /// (subtracted from per-op allocation counts that span a tick).
  double total_kernel_ns() const { return total_kernel_ns_; }
  const AllocCounts& kernel_allocs() const { return kernel_allocs_; }

  /// Per slice: whether its scale factor can be trusted, i.e. the kernel
  /// times at its two ends agree to within kMaxTickDisagreement. When fewer
  /// than half the slices qualify, the half whose ends agree best is
  /// trusted. The calibrated figures use samples from trusted slices only:
  /// where the machine's speed moved inside a slice, no single factor
  /// describes it.
  std::vector<bool> TrustedSlices() const;

  /// Median kernel time, and the interquartile range of the kernel times
  /// as a share of their median (how much the machine's speed moved).
  double MedianKernelNs() const;
  double KernelSpread() const;

  /// Host time between ticks, kernel runs excluded: raw over all slices,
  /// and scaled by each slice's factor over the slices `keep` selects.
  double RawSpanNs() const;
  double ScaledSpanNs(const std::vector<bool>& keep) const;

 private:
  CalibrationKernel kernel_;
  std::vector<double> kernel_ns_;
  std::vector<double> start_ns_;  ///< kernel start, per tick
  std::vector<double> end_ns_;    ///< kernel end, per tick
  double total_kernel_ns_ = 0.0;
  AllocCounts kernel_allocs_;
};

/// Median and quartile helpers over a copy of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);

}  // namespace viewmat::hostbench

#endif  // HOSTBENCH_CALIBRATION_H_
