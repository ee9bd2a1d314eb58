// Storage hot-path microbenchmarks (google-benchmark): BufferPool::Fetch on
// a hit and on a miss that evicts a dirty victim, a WAL Append+Sync of a
// 104-byte payload, and the WAL record checksum — CRC-32C (hardware and
// table kernels) against the byte-at-a-time FNV-1a it replaced — at 16,
// 104 and 424 bytes.
//
// With --json the google-benchmark harness is bypassed (it owns argv and
// stdout) and a manual chrono timing loop produces the same ns/op figures.
// The report's tables hold only deterministic figures (device I/O per
// operation); wall-clock medians go in the execution block.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/logging.h"
#include "sim/bench_report.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/wal.h"

using namespace viewmat;
using storage::BufferPool;
using storage::CostTracker;
using storage::PageId;
using storage::SimulatedDisk;
using storage::WriteAheadLog;

namespace {

constexpr uint32_t kPageSize = 4096;

/// A buffer pool over an in-memory disk holding `pages` written pages,
/// none of them resident.
struct PoolRig {
  CostTracker tracker;
  SimulatedDisk disk{kPageSize, &tracker};
  BufferPool pool;
  std::vector<PageId> ids;

  PoolRig(size_t capacity, size_t pages) : pool(&disk, capacity) {
    for (size_t i = 0; i < pages; ++i) {
      auto g = pool.NewPage();
      VIEWMAT_CHECK(g.ok());
      ids.push_back(g->id());
    }
    VIEWMAT_CHECK(pool.FlushAndEvictAll().ok());
    tracker.Reset();
  }
};

/// Pins and releases one resident page.
struct FetchHit {
  PoolRig rig{64, 1};
  CostTracker& tracker() { return rig.tracker; }
  void Step(size_t) {
    auto g = rig.pool.Fetch(rig.ids[0]);
    benchmark::DoNotOptimize(g->page().data());
  }
};

/// Cycles through twice as many pages as frames, dirtying each: every
/// fetch misses and evicts a dirty least-recently-used victim, so each op
/// is one read plus one write-back.
struct FetchMissDirty {
  PoolRig rig{8, 16};
  CostTracker& tracker() { return rig.tracker; }
  void Step(size_t i) {
    auto g = rig.pool.Fetch(rig.ids[i % rig.ids.size()]);
    g->MarkDirty();
  }
};

/// Group-commit WAL: stage one 104-byte record, then sync it. The log is
/// truncated every 64 pages so the chain stays bounded; that cost is
/// amortized into the figure.
struct WalAppendSync {
  CostTracker cost;
  SimulatedDisk disk{kPageSize, &cost};
  WriteAheadLog log{&disk, WriteAheadLog::Options{.auto_sync = false}};
  std::vector<uint8_t> payload = std::vector<uint8_t>(104, 0x5a);

  WalAppendSync() { cost.Reset(); }
  CostTracker& tracker() { return cost; }
  void Step(size_t i) {
    payload[0] = static_cast<uint8_t>(i);
    VIEWMAT_CHECK(log.Append(1, payload.data(), 104).ok());
    VIEWMAT_CHECK(log.Sync().ok());
    if (log.page_count() >= 64) VIEWMAT_CHECK(log.Truncate().ok());
  }
};

/// The WAL record checksum before CRC-32C: FNV-1a, one byte per step.
uint32_t Fnv1a(const uint8_t* p, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 16777619u;
  }
  return h;
}

std::vector<uint8_t> ChecksumInput(size_t n) {
  std::vector<uint8_t> buf(n);
  for (size_t i = 0; i < n; ++i) buf[i] = static_cast<uint8_t>(i * 131 + 7);
  return buf;
}

template <typename Micro>
void RunMicro(benchmark::State& state) {
  Micro micro;
  size_t i = 0;
  for (auto _ : state) micro.Step(i++);
}

void BM_PoolFetchHit(benchmark::State& state) { RunMicro<FetchHit>(state); }
BENCHMARK(BM_PoolFetchHit);

void BM_PoolFetchMissDirtyEvict(benchmark::State& state) {
  RunMicro<FetchMissDirty>(state);
}
BENCHMARK(BM_PoolFetchMissDirtyEvict);

void BM_WalAppendSync104(benchmark::State& state) {
  RunMicro<WalAppendSync>(state);
}
BENCHMARK(BM_WalAppendSync104);

void BM_Crc32c(benchmark::State& state) {
  const std::vector<uint8_t> buf = ChecksumInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(buf.data(), buf.size()));
  }
}
BENCHMARK(BM_Crc32c)->Arg(16)->Arg(104)->Arg(424);

void BM_Crc32cTable(benchmark::State& state) {
  const std::vector<uint8_t> buf = ChecksumInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crc32c_internal::ExtendTable(0, buf.data(), buf.size()));
  }
}
BENCHMARK(BM_Crc32cTable)->Arg(16)->Arg(104)->Arg(424);

void BM_Fnv1a(benchmark::State& state) {
  const std::vector<uint8_t> buf = ChecksumInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fnv1a(buf.data(), buf.size()));
  }
}
BENCHMARK(BM_Fnv1a)->Arg(16)->Arg(104)->Arg(424);

/// Median-of-5 ns/op over repeated timed loops of `iters` steps.
template <typename Fn>
double NsPerOp(size_t iters, Fn fn) {
  std::vector<double> samples;
  size_t i = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t k = 0; k < iters; ++k) fn(i++);
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Times one storage micro and returns its device reads and writes per op.
template <typename Micro>
double TimeStorageMicro(size_t iters, double* reads_per_op,
                        double* writes_per_op) {
  Micro micro;
  const double ns = NsPerOp(iters, [&micro](size_t i) { micro.Step(i); });
  const double ops = 5.0 * static_cast<double>(iters);
  const storage::CostCounters& c = micro.tracker().counters();
  *reads_per_op = static_cast<double>(c.disk_reads) / ops;
  *writes_per_op = static_cast<double>(c.disk_writes) / ops;
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  if (cli.want_json()) {
    sim::BenchReport report("bench_hotpath", cli.quick);
    const size_t iters = cli.quick ? 20000 : 200000;
    std::string timings;
    auto record = [&](const char* name, double ns) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s%s=%.1f", timings.empty() ? "" : " ",
                    name, ns);
      timings += buf;
      std::printf("%-28s %10.1f ns/op\n", name, ns);
    };

    sim::SeriesTable io;
    io.title =
        "Device I/O per operation (0 = fetch hit, 1 = fetch miss with dirty "
        "eviction, 2 = WAL append+sync of 104 B)";
    io.x_label = "micro";
    io.series_names = {"reads/op", "writes/op"};
    double reads = 0;
    double writes = 0;
    record("pool_fetch_hit",
           TimeStorageMicro<FetchHit>(iters, &reads, &writes));
    io.AddRow(0, {reads, writes});
    record("pool_fetch_miss_dirty",
           TimeStorageMicro<FetchMissDirty>(iters, &reads, &writes));
    io.AddRow(1, {reads, writes});
    record("wal_append_sync_104",
           TimeStorageMicro<WalAppendSync>(iters, &reads, &writes));
    io.AddRow(2, {reads, writes});
    report.AddTable(io);

    for (const size_t n : {16, 104, 424}) {
      const std::vector<uint8_t> buf = ChecksumInput(n);
      const std::string size = std::to_string(n);
      record(("crc32c_" + size).c_str(), NsPerOp(iters, [&buf](size_t) {
               benchmark::DoNotOptimize(Crc32c(buf.data(), buf.size()));
             }));
      record(("crc32c_table_" + size).c_str(), NsPerOp(iters, [&buf](size_t) {
               benchmark::DoNotOptimize(
                   crc32c_internal::ExtendTable(0, buf.data(), buf.size()));
             }));
      record(("fnv1a_" + size).c_str(), NsPerOp(iters, [&buf](size_t) {
               benchmark::DoNotOptimize(Fnv1a(buf.data(), buf.size()));
             }));
    }
    report.AddExecutionNote("hotpath_ns_per_op", timings);
    report.AddExecutionNote(
        "crc32c_kernel",
        crc32c_internal::HardwareAvailable() ? "sse4.2" : "slicing-by-8");
    return sim::FinishBenchMain(cli, &report);
  }

  // Strip the flags BenchCli consumed; google-benchmark rejects unknown
  // arguments.
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") continue;
    if ((arg == "--json" || arg == "--jobs") && i + 1 < argc) {
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
