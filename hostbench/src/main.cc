// hostbench: host-time benchmark of the viewmat engine at the paper's scale.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// Runs one workload's fixed, seeded operation sequence and prints human
// readable figures followed, as the last line, by one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the sequence
// untraced and then traced, and reports the per-layer metrics.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "calibration.h"
#include "replay.h"
#include "workloads.h"

namespace viewmat::hostbench {
namespace {

/// A run whose calibration kernel times spread (interquartile range over
/// median) by more than this is flagged: within the run the machine's
/// speed moved by more than the tightest timing bound in BENCHMARK.json
/// (0.2, on ops_per_s and the p50 latencies).
constexpr double kCalibFlagSpread = 0.2;

/// Timed set-ups per run; the median is reported.
constexpr int kSetupBuilds = 21;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || args->seconds < 1) return false;
    } else if (key == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || (args->trace != 0 && args->trace != 1)) return false;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

/// Host clock for the tracer: milliseconds since the tracer started.
class HostClock : public obs::VirtualClock {
 public:
  double NowMs() const override { return (NowNs() - origin_ns_) * 1e-6; }

 private:
  double origin_ns_ = NowNs();
};

/// Latencies of one op class in microseconds: calibrated and from trusted
/// slices only when `trusted` is given, raw and all samples otherwise.
/// `refreshed` >= 0 keeps only queries that did (1) or did not (0) run the
/// deferred refresh.
std::vector<double> LatenciesUs(const PassResult& r, OpKind kind,
                                const std::vector<bool>* trusted,
                                int refreshed = -1) {
  std::vector<double> out;
  for (const OpSample& s : r.samples) {
    if (s.kind != kind) continue;
    if (refreshed >= 0 && s.refreshed != (refreshed == 1)) continue;
    if (trusted == nullptr) {
      out.push_back(s.raw_ns * 1e-3);
    } else if ((*trusted)[s.slice]) {
      out.push_back(s.raw_ns * r.calib.Factor(s.slice) * 1e-3);
    }
  }
  return out;
}

/// Closed-loop throughput over the timed sequence: operations over the
/// engine's busy time (direct workloads) or over the event loop's time
/// (wire workload). Calibrated over trusted slices when `trusted` is
/// given, raw over everything otherwise.
double OpsPerSecond(const PassResult& r, const std::vector<bool>* trusted) {
  double ns = 0.0;
  uint64_t ops = 0;
  for (const OpSample& s : r.samples) {
    if (trusted != nullptr && !(*trusted)[s.slice]) continue;
    ++ops;
    if (!r.loop_throughput) {
      ns += trusted != nullptr ? s.raw_ns * r.calib.Factor(s.slice) : s.raw_ns;
    }
  }
  if (r.loop_throughput) {
    ns = trusted != nullptr ? r.calib.ScaledSpanNs(*trusted)
                            : r.calib.RawSpanNs();
  }
  return ns > 0.0 ? static_cast<double>(ops) / (ns * 1e-9) : 0.0;
}

/// Median set-up time: calibrated over the builds in trusted slices, or
/// raw over all builds.
double SetupSeconds(const PassResult& r, bool calibrated) {
  if (!calibrated) return Quantile(r.setup_raw_s, 0.5);
  const std::vector<bool> trusted = r.setup_calib.TrustedSlices();
  std::vector<double> scaled;
  for (size_t i = 0; i < r.setup_raw_s.size(); ++i) {
    if (trusted[i]) {
      scaled.push_back(r.setup_raw_s[i] * r.setup_calib.Factor(i));
    }
  }
  return Quantile(scaled, 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Per(double num, uint64_t den) {
  return den == 0 ? 0.0 : num / static_cast<double>(den);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintCorrectness(const char* label, const PassResult& r) {
  std::printf(
      "%s: attempted %llu, failed %llu (errors %llu, wrong answers %llu), "
      "queries checked %llu; server shed %llu, rejected %llu, redelivered "
      "%llu, degraded %llu\n",
      label, static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.errors),
      static_cast<unsigned long long>(r.wrong_answers),
      static_cast<unsigned long long>(r.queries_checked),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.rejected),
      static_cast<unsigned long long>(r.redelivered),
      static_cast<unsigned long long>(r.degraded));
}

void PrintCalibration(const PassResult& r) {
  const double spread = r.calib.KernelSpread();
  size_t trusted = 0;
  for (const bool t : r.calib.TrustedSlices()) trusted += t;
  std::printf(
      "calibration: %zu kernel ticks, median %.1f us (reference %.1f us), "
      "%zu of %zu slices trusted, spread %.3f%s\n",
      r.calib.ticks(), r.calib.MedianKernelNs() * 1e-3,
      r.calib.ref_kernel_ns() * 1e-3, trusted, r.calib.ticks() - 1, spread,
      spread > kCalibFlagSpread ? " FLAGGED: machine speed moved within the run"
                                : "");
}

/// Whether a pass is correct: no failed operation, the server's shed,
/// rejected and redelivered counters at 0, and every query answer checked.
bool Correct(const PassResult& r) {
  uint64_t queries = 0;
  for (const OpSample& s : r.samples) queries += s.kind == OpKind::kQuery;
  return r.failed == 0 && r.shed == 0 && r.rejected == 0 &&
         r.redelivered == 0 && r.queries_checked >= queries;
}

int EndToEnd(const Args& args, const WorkloadSpec& spec) {
  PassOptions po;
  po.spec = &spec;
  po.seed = args.seed;
  po.seconds = args.seconds;
  po.setup_builds = kSetupBuilds;
  StatusOr<PassResult> pass = RunPass(po);
  if (!pass.ok()) {
    std::fprintf(stderr, "hostbench: %s\n", pass.status().ToString().c_str());
    return 1;
  }
  const PassResult& r = *pass;
  const double rss = PeakRssMb();
  const std::vector<bool> trusted = r.calib.TrustedSlices();
  const std::vector<double> upd = LatenciesUs(r, OpKind::kUpdate, &trusted);
  const std::vector<double> qry = LatenciesUs(r, OpKind::kQuery, &trusted);
  const std::vector<double> upd_raw = LatenciesUs(r, OpKind::kUpdate, nullptr);
  const std::vector<double> qry_raw = LatenciesUs(r, OpKind::kQuery, nullptr);
  if (upd.size() < 1000 || qry.size() < 1000) {
    std::fprintf(stderr,
                 "hostbench: fewer than 1000 trusted samples of an op class "
                 "(updates %zu, queries %zu)\n",
                 upd.size(), qry.size());
    return 1;
  }

  std::printf("workload %s, seed %llu, %zu timed ops (%llu updates, %llu "
              "queries)\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              r.samples.size(), static_cast<unsigned long long>(r.updates),
              static_cast<unsigned long long>(r.queries));
  PrintCorrectness("correctness", r);
  PrintCalibration(r);
  std::printf("%-16s %14s %14s  (samples: calibrated / raw)\n", "metric",
              "calibrated", "raw");
  std::printf("%-16s %14.6f %14.6f\n", "setup_s", SetupSeconds(r, true),
              SetupSeconds(r, false));
  std::printf("%-16s %14.1f %14.1f\n", "ops_per_s", OpsPerSecond(r, &trusted),
              OpsPerSecond(r, nullptr));
  std::printf("%-16s %14.2f %14.2f  (n=%zu / %zu)\n", "update_p50_us",
              Quantile(upd, 0.5), Quantile(upd_raw, 0.5), upd.size(),
              upd_raw.size());
  std::printf("%-16s %14.2f %14.2f  (n=%zu / %zu)\n", "update_p99_us",
              Quantile(upd, 0.99), Quantile(upd_raw, 0.99), upd.size(),
              upd_raw.size());
  std::printf("%-16s %14.2f %14.2f  (n=%zu / %zu)\n", "query_p50_us",
              Quantile(qry, 0.5), Quantile(qry_raw, 0.5), qry.size(),
              qry_raw.size());
  std::printf("%-16s %14.2f %14.2f  (n=%zu / %zu)\n", "query_p99_us",
              Quantile(qry, 0.99), Quantile(qry_raw, 0.99), qry.size(),
              qry_raw.size());
  std::printf("setup builds: %zu, live pages %zu, device %.0f B, user %.0f B\n",
              r.setup_raw_s.size(), r.live_pages, r.device_bytes,
              r.user_bytes);

  const std::vector<Metric> metrics = {
      {"setup_s", SetupSeconds(r, true), "s"},
      {"ops_per_s", OpsPerSecond(r, &trusted), "1/s"},
      {"update_p50_us", Quantile(upd, 0.5), "us"},
      {"update_p99_us", Quantile(upd, 0.99), "us"},
      {"query_p50_us", Quantile(qry, 0.5), "us"},
      {"query_p99_us", Quantile(qry, 0.99), "us"},
      {"model_ms_per_query", Per(r.model_ms, r.queries), "model_ms"},
      {"space_amp", r.device_bytes / r.user_bytes, "ratio"},
      {"peak_rss_mb", rss, "MB"},
  };
  PrintResult(Correct(r), r.attempted, r.failed, metrics);
  return 0;
}

int PerLayer(const Args& args, const WorkloadSpec& spec) {
  PassOptions po;
  po.spec = &spec;
  po.seed = args.seed;
  po.seconds = args.seconds;
  StatusOr<PassResult> plain = RunPass(po);
  if (!plain.ok()) {
    std::fprintf(stderr, "hostbench: %s\n", plain.status().ToString().c_str());
    return 1;
  }
  HostClock clock;
  obs::Tracer tracer(&clock);
  tracer.NewTrack(std::string(spec.name) + " (host time)");
  po.tracer = &tracer;
  StatusOr<PassResult> traced = RunPass(po);
  if (!traced.ok()) {
    std::fprintf(stderr, "hostbench: %s\n", traced.status().ToString().c_str());
    return 1;
  }
  const PassResult& a = *plain;   // counts and allocations: untraced
  const PassResult& b = *traced;  // span-derived timings and replays
  const ReplayTimes rt = Replay(spec, args.seed, b.capture, &tracer);
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << tracer.ToChromeTraceJson();
    if (!out) {
      std::fprintf(stderr, "hostbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s\n", tracer.span_count(),
                args.trace_out.c_str());
  }

  const uint64_t ops = a.updates + a.queries;
  const storage::CostCounters wal =
      a.attributed.ComponentTotal(storage::Component::kWal);
  const storage::CostCounters ad_log =
      a.attributed.ComponentTotal(storage::Component::kAdLog);
  // On the wire workload requests interleave in one event loop, so
  // allocations are known per operation, not per class.
  const AllocCounts upd_alloc = spec.wire ? a.alloc_total : a.alloc_update;
  const AllocCounts qry_alloc = spec.wire ? a.alloc_total : a.alloc_query;
  const uint64_t upd_den = spec.wire ? ops : a.updates;
  const uint64_t qry_den = spec.wire ? ops : a.queries;
  const double alloc_bytes =
      spec.wire ? static_cast<double>(a.alloc_total.bytes)
                : static_cast<double>(a.alloc_update.bytes +
                                      a.alloc_query.bytes);
  const std::vector<bool> a_trusted = a.calib.TrustedSlices();
  const std::vector<bool> b_trusted = b.calib.TrustedSlices();
  const double plain_ops = OpsPerSecond(a, &a_trusted);
  const double traced_ops = OpsPerSecond(b, &b_trusted);

  std::printf("workload %s, seed %llu, %llu timed ops per pass\n", spec.name,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(ops));
  PrintCorrectness("untraced pass", a);
  PrintCorrectness("traced pass", b);
  PrintCalibration(a);
  std::printf("ops_per_s: untraced %.1f, traced %.1f (calibrated)\n",
              plain_ops, traced_ops);
  std::printf("cost: reads %llu, writes %llu, screens %llu, tuple cpu %llu, "
              "ad set ops %llu, model ms %.1f\n",
              static_cast<unsigned long long>(a.cost.disk_reads),
              static_cast<unsigned long long>(a.cost.disk_writes),
              static_cast<unsigned long long>(a.cost.screen_tests),
              static_cast<unsigned long long>(a.cost.tuple_cpu_ops),
              static_cast<unsigned long long>(a.cost.ad_set_ops), a.model_ms);
  std::printf("allocs: updates %llu (%llu B), queries %llu (%llu B), wire loop "
              "%llu (%llu B)\n",
              static_cast<unsigned long long>(a.alloc_update.count),
              static_cast<unsigned long long>(a.alloc_update.bytes),
              static_cast<unsigned long long>(a.alloc_query.count),
              static_cast<unsigned long long>(a.alloc_query.bytes),
              static_cast<unsigned long long>(a.alloc_total.count),
              static_cast<unsigned long long>(a.alloc_total.bytes));

  // The component × phase attribution of the timed sequence's model cost:
  // exact, so two runs of one seed print identical cells.
  for (size_t c = 0; c < storage::kNumComponents; ++c) {
    for (size_t p = 0; p < storage::kNumPhases; ++p) {
      const storage::CostCounters& cell = a.attributed.cells[c][p];
      if (cell.empty()) continue;
      std::printf("attributed %s/%s: reads %llu, writes %llu, screens %llu, "
                  "tuple cpu %llu, ad set ops %llu\n",
                  storage::ComponentName(static_cast<storage::Component>(c)),
                  storage::PhaseName(static_cast<storage::Phase>(p)),
                  static_cast<unsigned long long>(cell.disk_reads),
                  static_cast<unsigned long long>(cell.disk_writes),
                  static_cast<unsigned long long>(cell.screen_tests),
                  static_cast<unsigned long long>(cell.tuple_cpu_ops),
                  static_cast<unsigned long long>(cell.ad_set_ops));
    }
  }

  const std::vector<Metric> metrics = {
      {"storage.disk_reads_per_op",
       Per(static_cast<double>(a.cost.disk_reads), ops), "count"},
      {"storage.disk_writes_per_op",
       Per(static_cast<double>(a.cost.disk_writes), ops), "count"},
      {"storage.wal_ios_per_update",
       Per(static_cast<double>(wal.disk_ios() + ad_log.disk_ios()), a.updates),
       "count"},
      {"storage.forced_wal_syncs_per_op",
       Per(static_cast<double>(a.wal_syncs_forced), ops), "count"},
      {"storage.live_pages", static_cast<double>(a.live_pages), "count"},
      {"db.tuple_cpu_ops_per_op",
       Per(static_cast<double>(a.cost.tuple_cpu_ops), ops), "count"},
      {"db.screen_tests_per_update",
       Per(static_cast<double>(a.cost.screen_tests), a.updates), "count"},
      {"db.deserialize_ns", rt.deserialize_ns, "ns"},
      {"db.serialize_ns", rt.serialize_ns, "ns"},
      {"db.project_ns", rt.project_ns, "ns"},
      {"db.predicate_eval_ns", rt.predicate_ns, "ns"},
      {"hr.ad_set_ops_per_update",
       Per(static_cast<double>(a.cost.ad_set_ops), a.updates), "count"},
      {"hr.pending_at_query",
       Per(static_cast<double>(a.pending_sum), a.queries), "count"},
      {"hr.bloom_probe_ns", rt.bloom_probe_ns, "ns"},
      {"view.refreshes_per_query",
       Per(static_cast<double>(a.refreshes), a.queries), "count"},
      // Queries split by whether they ran the refresh; a wire client cannot
      // see that per request, so these are direct-workload figures.
      {"view.query_refresh_us",
       spec.wire ? 0.0
                 : Quantile(LatenciesUs(b, OpKind::kQuery, &b_trusted, 1), 0.5),
       "us"},
      {"view.query_clean_us",
       spec.wire ? 0.0
                 : Quantile(LatenciesUs(b, OpKind::kQuery, &b_trusted, 0), 0.5),
       "us"},
      {"view.rows_per_query", Per(static_cast<double>(a.rows), a.queries),
       "count"},
      {"net.encode_ns", rt.encode_ns, "ns"},
      {"net.decode_ns", rt.decode_ns, "ns"},
      {"net.bytes_per_op", 2.0 * rt.frame_bytes, "B"},
      {"net.events_per_op", Per(static_cast<double>(a.net_events), ops),
       "count"},
      {"net.digest_us_per_query", rt.digest_us, "us"},
      {"net.shed_requests", static_cast<double>(a.shed + b.shed), "count"},
      {"net.rejected_commits", static_cast<double>(a.rejected + b.rejected),
       "count"},
      {"net.redelivered_commits",
       static_cast<double>(a.redelivered + b.redelivered), "count"},
      {"alloc.per_update", Per(static_cast<double>(upd_alloc.count), upd_den),
       "count"},
      {"alloc.per_query", Per(static_cast<double>(qry_alloc.count), qry_den),
       "count"},
      {"alloc.bytes_per_op", Per(alloc_bytes, ops), "B"},
      {"bench.calib_us", a.calib.MedianKernelNs() * 1e-3, "us"},
      {"bench.calib_spread", a.calib.KernelSpread(), "frac"},
      {"bench.trace_overhead_frac",
       plain_ops > 0.0 ? 1.0 - traced_ops / plain_ops : 0.0, "frac"},
      {"workload.gen_us_per_op", Per(b.gen_ns * 1e-3, ops), "us"},
  };
  PrintResult(Correct(a) && Correct(b), a.attempted + b.attempted,
              a.failed + b.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace viewmat::hostbench

int main(int argc, char** argv) {
  using namespace viewmat::hostbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hostbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "hostbench: unknown workload '%s'; known:%s\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }
  return args.trace == 1 ? PerLayer(args, *spec) : EndToEnd(args, *spec);
}
