// Microbenchmark (google-benchmark): exact hypergeometric Yao vs the
// Cardenas approximation, plus an accuracy spot-table on Appendix B's
// n/m > 10 claim, plus the disabled-tracer overhead check: a null-tracer
// ScopedSpan wrapped around the approximation must cost nothing
// measurable.
//
// With --json the google-benchmark harness is bypassed (it owns argv and
// stdout) and a manual chrono timing loop produces the same ns/op figures
// for the machine-readable report.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "costmodel/yao.h"
#include "obs/trace.h"
#include "sim/bench_report.h"

using namespace viewmat;

static void BM_YaoExact(benchmark::State& state) {
  const int64_t k = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(costmodel::YaoExact(100000, 2500, k));
  }
}
BENCHMARK(BM_YaoExact)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

static void BM_YaoApprox(benchmark::State& state) {
  const double k = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(costmodel::YaoApprox(100000.0, 2500.0, k));
  }
}
BENCHMARK(BM_YaoApprox)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// The acceptance check for the tracer's null sink: same body as
// BM_YaoApprox with a disabled-span constructor/destructor pair inside the
// loop. Compare against BM_YaoApprox — the delta is the per-span cost when
// tracing is off.
static void BM_YaoApproxNullSpan(benchmark::State& state) {
  const double k = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const obs::ScopedSpan span(nullptr, "yao");
    benchmark::DoNotOptimize(costmodel::YaoApprox(100000.0, 2500.0, k));
  }
}
BENCHMARK(BM_YaoApproxNullSpan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

namespace {

/// Median-of-5 ns/op over repeated timed loops of `iters` calls.
template <typename Fn>
double NsPerOp(int iters, Fn fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() / iters);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// False-sharing micro-measurement: `threads` workers each hammer their
/// own counter slot. Packed slots share cache lines; padded slots
/// (alignas(64), one per line) do not. On multi-core hardware the packed
/// variant is several times slower from line bouncing — the measured gap
/// is why MetricsRegistry pads its shards to cache-line size. On a
/// single hardware thread the two converge (no cross-core traffic), and
/// the note reports whatever this machine actually measured.
double SharedCounterNsPerOp(bool padded, unsigned threads, int iters) {
  struct PackedSlot {
    std::atomic<uint64_t> v{0};
  };
  struct alignas(64) PaddedSlot {
    std::atomic<uint64_t> v{0};
  };
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<PackedSlot> packed_slots(threads);
    std::vector<PaddedSlot> padded_slots(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::atomic<uint64_t>& slot =
            padded ? padded_slots[t].v : packed_slots[t].v;
        for (int i = 0; i < iters; ++i) {
          slot.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        (static_cast<double>(threads) * iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  std::printf("# Yao exact vs Cardenas approximation (Appendix B)\n");
  std::printf("%-10s %-10s %14s %14s %10s\n", "n/m", "k", "exact", "approx",
              "rel-err%");
  sim::BenchReport report("bench_yao_micro", cli.quick);
  for (const int64_t m : {2500, 10000, 50000}) {
    char title[80];
    std::snprintf(title, sizeof(title),
                  "Yao accuracy (Appendix B) — n/m = %lld",
                  static_cast<long long>(100000 / m));
    sim::SeriesTable table{.title = title,
                           .x_label = "k",
                           .series_names = {"exact", "approx", "rel-err%"},
                           .rows = {}};
    for (const int64_t k : {10, 100, 1000, 10000}) {
      const double e = costmodel::YaoExact(100000, m, k);
      const double a = costmodel::YaoApprox(100000, m, k);
      const double err = e > 0 ? 100.0 * (a - e) / e : 0.0;
      std::printf("%-10lld %-10lld %14.3f %14.3f %9.3f%%\n",
                  static_cast<long long>(100000 / m),
                  static_cast<long long>(k), e, a, err);
      table.AddRow(static_cast<double>(k), {e, a, err});
    }
    report.AddTable(table);
  }
  std::printf("\n");

  if (cli.want_json()) {
    // Manual timing: google-benchmark owns stdout and argv, so the JSON
    // path measures with a plain chrono loop instead.
    const int iters = cli.quick ? 20000 : 200000;
    const double approx_ns = NsPerOp(iters, [](int i) {
      benchmark::DoNotOptimize(
          costmodel::YaoApprox(100000.0, 2500.0, 10.0 + (i & 7)));
    });
    const double null_span_ns = NsPerOp(iters, [](int i) {
      const obs::ScopedSpan span(nullptr, "yao");
      benchmark::DoNotOptimize(
          costmodel::YaoApprox(100000.0, 2500.0, 10.0 + (i & 7)));
    });
    const double exact_ns = NsPerOp(cli.quick ? 200 : 2000, [](int i) {
      benchmark::DoNotOptimize(costmodel::YaoExact(100000, 2500, 1000 + i));
    });
    sim::SeriesTable timing;
    timing.title = "Microbenchmark timings (wall clock, median of 5)";
    timing.x_label = "row";
    timing.series_names = {"yao-approx-ns", "yao-approx-null-span-ns",
                           "yao-exact-k1000-ns"};
    timing.AddRow(0, {approx_ns, null_span_ns, exact_ns});
    report.AddTable(timing);
    char overhead[96];
    std::snprintf(overhead, sizeof(overhead), "%.2f ns/span (approx %.2f)",
                  null_span_ns - approx_ns, approx_ns);
    report.AddNote("null_span_overhead", overhead);
    std::printf("disabled-tracer span overhead: %s\n", overhead);

    // Per-thread counter slots, packed vs cache-line padded — the
    // measurement behind MetricsRegistry's alignas(64) shards. Wall-clock
    // ns on whatever this machine is, so it goes in the execution block,
    // not the gated notes.
    const unsigned fs_threads = 4;
    const int fs_iters = cli.quick ? 50000 : 500000;
    const double packed_ns =
        SharedCounterNsPerOp(/*padded=*/false, fs_threads, fs_iters);
    const double padded_ns =
        SharedCounterNsPerOp(/*padded=*/true, fs_threads, fs_iters);
    char fs_note[160];
    std::snprintf(fs_note, sizeof(fs_note),
                  "packed=%.2f padded=%.2f ns/inc at %u threads (x%.2f) — "
                  "why MetricsRegistry pads shards to 64B lines",
                  packed_ns, padded_ns, fs_threads,
                  padded_ns > 0 ? packed_ns / padded_ns : 1.0);
    report.AddExecutionNote("false_sharing", fs_note);
    std::printf("false sharing: %s\n", fs_note);
    return sim::FinishBenchMain(cli, &report);
  }

  // Strip the flags BenchCli consumed; google-benchmark rejects unknown
  // arguments.
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") continue;
    if (arg == "--json" && i + 1 < argc) {
      ++i;
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
