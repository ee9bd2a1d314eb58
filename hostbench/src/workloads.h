#ifndef HOSTBENCH_WORKLOADS_H_
#define HOSTBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "calibration.h"
#include "common/status.h"
#include "db/tuple.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "sim/strategy_driver.h"
#include "storage/cost_tracker.h"

namespace viewmat::hostbench {

/// One named workload: the engine configuration and the operation mix.
struct WorkloadSpec {
  const char* name;
  int model;                 ///< 1 = select-project view, 2 = join view
  sim::StrategyKind kind;
  double update_fraction;    ///< share of operations that are updates
  size_t pool_pages;         ///< buffer-pool frames
  bool wire;                 ///< behind SessionServer on the in-process Network
  /// Timed operations per --seconds: sizes the fixed operation sequence
  /// so a run measures about that long on the reference machine, while
  /// the amount of work never depends on the speed of the machine.
  double ops_per_second;
  /// Floor on timed operations: the rarer op class keeps >= 1000 samples
  /// even when only half the calibration slices are trusted.
  uint64_t min_timed_ops;
  uint64_t slice_ops;        ///< operations between calibration ticks
  /// The kernel whose slowdowns best track this workload's (see
  /// calibration.cc).
  CalibrationKernel calibration;
};

/// The workloads, by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The paper's defaults (N = 100000, S = 100, B = 4000, l = 25,
/// f = f_v = f_R2 = 0.1) with k/q set to the workload's update share.
costmodel::Params WorkloadParams(const WorkloadSpec& spec);

enum class OpKind : uint8_t { kUpdate, kQuery };

/// One timed operation: its raw host latency and the calibration slice it
/// ran in.
struct OpSample {
  OpKind kind = OpKind::kUpdate;
  /// Query only: the deferred refresh ran inside it (the refresh phase of
  /// the cost attribution moved).
  bool refreshed = false;
  uint32_t slice = 0;
  double raw_ns = 0.0;
};

/// Inputs captured during a traced pass, replayed afterwards through each
/// layer's public API to time it in isolation.
struct Capture {
  std::vector<db::Tuple> base_tuples;  ///< update transactions' tuples
  /// Per operation, in order: an update's victim keys, or an empty list
  /// for a query that ran the deferred refresh (it empties the AD file).
  std::vector<std::vector<int64_t>> ad_key_stream;
  std::vector<net::Message> messages;   ///< wire frames sent and received
  std::vector<sim::ViewMultiset> answers;  ///< checked query answers
};

/// Everything one pass over a workload's operation sequence measured.
struct PassResult {
  // --- Correctness -------------------------------------------------------
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t errors = 0;         ///< calls that returned an error
  uint64_t wrong_answers = 0;  ///< answers that differ from the oracle
  uint64_t queries_checked = 0;
  uint64_t shed = 0;           ///< SessionServer counters (wire only)
  uint64_t rejected = 0;
  uint64_t redelivered = 0;
  uint64_t degraded = 0;

  // --- Host time -----------------------------------------------------------
  std::vector<double> setup_raw_s;  ///< build i ran in setup_calib's slice i
  Calibrator setup_calib;
  std::vector<OpSample> samples;  ///< timed operations only
  Calibrator calib;               ///< ticks over the timed sequence
  /// Wire: throughput is operations over the event loop's time between
  /// ticks (calib's spans), not over the sum of request latencies, which
  /// overlap across sessions.
  bool loop_throughput = false;
  double gen_ns = 0.0;  ///< traced pass: time spent generating operations

  // --- Exact counts over the timed sequence ------------------------------
  uint64_t updates = 0;
  uint64_t queries = 0;
  storage::CostCounters cost;
  storage::AttributedCounters attributed;
  double model_ms = 0.0;
  uint64_t wal_syncs_forced = 0;
  size_t live_pages = 0;
  double device_bytes = 0.0;
  double user_bytes = 0.0;
  AllocCounts alloc_update;
  AllocCounts alloc_query;
  AllocCounts alloc_total;  ///< wire: the whole timed loop, kernel excluded
  uint64_t rows = 0;
  uint64_t refreshes = 0;
  uint64_t pending_sum = 0;  ///< AD intents pending, summed over queries
  uint64_t net_events = 0;

  Capture capture;
};

struct PassOptions {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  int seconds = 10;
  int setup_builds = 1;  ///< set-ups timed; the last one runs the sequence
  obs::Tracer* tracer = nullptr;  ///< non-null = traced pass (spans, capture)
};

/// Runs one pass: set-up, warm-up, then the timed operation sequence, with
/// every query answer checked against the benchmark's own oracle.
StatusOr<PassResult> RunPass(const PassOptions& options);

}  // namespace viewmat::hostbench

#endif  // HOSTBENCH_WORKLOADS_H_
