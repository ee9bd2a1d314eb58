#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

namespace viewmat::common {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
  for (int i = 0; i < 10; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelFor, VisitsEachIndexExactlyOnce) {
  for (const size_t jobs : {size_t{1}, size_t{3}, size_t{8}}) {
    std::vector<std::atomic<int>> visits(257);
    for (auto& v : visits) v.store(0);
    ParallelFor(jobs, visits.size(),
                [&](size_t i) { visits[i].fetch_add(1); });
    for (size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ParallelFor, ZeroItemsIsANoOp) {
  ParallelFor(4, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, FirstExceptionPropagatesAndCancelsRemainingWork) {
  std::atomic<int> started{0};
  EXPECT_THROW(ParallelFor(4, 1000,
                           [&](size_t i) {
                             started.fetch_add(1);
                             if (i == 5) throw std::runtime_error("boom");
                             // A fixed cost per task, so the other workers
                             // cannot drain all thousand indices while the
                             // thrower is still unwinding.
                             std::this_thread::sleep_for(
                                 std::chrono::microseconds(200));
                           }),
               std::runtime_error);
  // Cancellation is advisory (already-dequeued indices still run), but the
  // bulk of the thousand tasks must have been skipped.
  EXPECT_LT(started.load(), 1000);
}

TEST(ParallelFor, SerialPathPropagatesExceptions) {
  EXPECT_THROW(
      ParallelFor(1, 10,
                  [](size_t i) {
                    if (i == 3) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

/// The determinism contract: deriving all randomness from the task index
/// and collecting by index makes the output bit-identical at any job
/// count, regardless of scheduling.
TEST(ParallelMap, ResultsAreIndexOrderedAndJobCountInvariant) {
  const size_t n = 64;
  auto run = [n](size_t jobs) {
    return ParallelMap(jobs, n, [](size_t i) {
      // Per-point derived seed, as the sweep runners do it.
      Random rng(1000 + static_cast<uint64_t>(i));
      std::vector<double> row;
      for (int j = 0; j < 8; ++j) row.push_back(rng.NextDouble());
      return row;
    });
  };
  const auto serial = run(1);
  ASSERT_EQ(serial.size(), n);
  for (const size_t jobs : {size_t{2}, size_t{7}, size_t{16}}) {
    const auto parallel = run(jobs);
    ASSERT_EQ(parallel.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ParallelMap, WorksWithMoveOnlyNonDefaultConstructibleResults) {
  struct Result {
    explicit Result(size_t i) : value(i) {}
    Result(Result&&) = default;
    Result& operator=(Result&&) = default;
    Result(const Result&) = delete;
    size_t value;
  };
  const auto out = ParallelMap(4, 10, [](size_t i) { return Result(i); });
  ASSERT_EQ(out.size(), 10u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].value, i);
}

TEST(ParallelMap, MoreJobsThanItemsIsFine) {
  const auto out = ParallelMap(16, 3, [](size_t i) { return i * i; });
  EXPECT_EQ(out, (std::vector<size_t>{0, 1, 4}));
}

/// The grain never changes WHAT runs: every index executes exactly once
/// at any (jobs, grain) shape, including grains larger than n and the
/// grain-0 alias for 1.
TEST(ParallelFor, GrainChunkingVisitsEachIndexExactlyOnceAtAnyShape) {
  for (const size_t jobs : {size_t{2}, size_t{4}, size_t{16}}) {
    for (const size_t grain :
         {size_t{0}, size_t{1}, size_t{7}, size_t{64}, size_t{10000}}) {
      std::vector<std::atomic<int>> visits(513);
      for (auto& v : visits) v.store(0);
      ParallelFor(jobs, visits.size(), grain,
                  [&](size_t i) { visits[i].fetch_add(1); });
      for (size_t i = 0; i < visits.size(); ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "jobs=" << jobs << " grain=" << grain << " i=" << i;
      }
    }
  }
}

/// Results collected by index are bit-identical at any grain — the
/// determinism contract the sweep runners rely on when they raise the
/// grain to cut claim traffic.
TEST(ParallelFor, IndexedResultsAreGrainInvariant) {
  const size_t n = 128;
  auto run = [n](size_t jobs, size_t grain) {
    std::vector<double> out(n, 0.0);
    ParallelFor(jobs, n, grain, [&](size_t i) {
      Random rng(7000 + static_cast<uint64_t>(i));
      out[i] = rng.NextDouble();
    });
    return out;
  };
  const auto serial = run(1, 1);
  for (const size_t jobs : {size_t{3}, size_t{8}}) {
    for (const size_t grain : {size_t{1}, size_t{5}, size_t{32}}) {
      EXPECT_EQ(run(jobs, grain), serial)
          << "jobs=" << jobs << " grain=" << grain;
    }
  }
}

TEST(ParallelFor, ExceptionInsideAChunkPropagatesAndAbandonsTheRest) {
  std::atomic<int> started{0};
  EXPECT_THROW(ParallelFor(4, 1000, /*grain=*/16,
                           [&](size_t i) {
                             started.fetch_add(1);
                             if (i == 40) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // The faulting chunk's remainder and all unclaimed chunks are skipped.
  EXPECT_LT(started.load(), 1000);
}

TEST(ParallelFor, SerialPathIgnoresGrainAndRunsInline) {
  // jobs <= 1 must stay the exact historical single-threaded loop no
  // matter the grain — no pool, same thread, ascending order.
  const auto caller = std::this_thread::get_id();
  size_t expected = 0;
  ParallelFor(1, 100, /*grain=*/13, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(i, expected++);
  });
  EXPECT_EQ(expected, 100u);
}

/// Stress: many small batches through fresh pools, checking the aggregate
/// each time. Under TSan this exercises the queue/wait handshake hard.
TEST(ParallelFor, StressManyBatches) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    const size_t n = 100 + static_cast<size_t>(round);
    ParallelFor(4, n, [&](size_t i) {
      sum.fetch_add(static_cast<int64_t>(i));
    });
    EXPECT_EQ(sum.load(), static_cast<int64_t>(n * (n - 1) / 2));
  }
}

TEST(DefaultJobs, IsAtLeastOne) { EXPECT_GE(DefaultJobs(), 1u); }

}  // namespace
}  // namespace viewmat::common
