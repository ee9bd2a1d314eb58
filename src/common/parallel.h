#ifndef VIEWMAT_COMMON_PARALLEL_H_
#define VIEWMAT_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace viewmat::common {

/// Default worker count for `--jobs 0` / unspecified: the hardware thread
/// count, or 1 when the runtime cannot report it.
inline size_t DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

/// A small fixed-size thread pool. Workers are spawned once in the
/// constructor and joined in the destructor; Submit enqueues a task,
/// Wait blocks until every submitted task has finished.
///
/// The pool makes no ordering or placement promises — determinism is the
/// caller's job, and the sweep runners get it by deriving all randomness
/// from the task *index* and collecting results *by index* (see
/// ParallelMap), so output is bit-identical at any worker count.
class ThreadPool {
 public:
  explicit ThreadPool(size_t threads) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    task_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
      ++pending_;
    }
    task_cv_.notify_one();
  }

  /// Blocks until every task submitted so far has completed.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        if (tasks_.empty()) return;  // stop_ set and queue drained
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  std::deque<std::function<void()>> tasks_;
  size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Invokes fn(i) for every i in [0, n), spread over up to `jobs` worker
/// threads (`jobs` 0 = DefaultJobs()). jobs <= 1 or n <= 1 runs inline on
/// the calling thread — the serial path involves no thread machinery at
/// all, so `--jobs 1` is exactly the old single-threaded execution.
///
/// Work is handed out dynamically in chunks of `grain` consecutive indices
/// per atomic claim. grain 1 (the default of the two-callback overload) is
/// the historical index-at-a-time behavior; a larger grain amortizes the
/// claim over cheap iterations and gives each worker cache-friendly runs of
/// adjacent indices. The grain never changes WHAT runs — each index is
/// executed exactly once and tasks must not depend on execution order — so
/// results collected by index are bit-identical at any (jobs, grain).
/// The first exception thrown by a task is rethrown on the calling thread
/// after all workers have drained (the remainder of a faulting chunk is
/// abandoned along with all unclaimed chunks).
inline void ParallelFor(size_t jobs, size_t n, size_t grain,
                        const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (jobs == 0) jobs = DefaultJobs();
  if (grain == 0) grain = 1;
  const size_t threads = jobs < n ? jobs : n;
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::mutex error_mu;
  std::exception_ptr error;
  {
    ThreadPool pool(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.Submit([&] {
        for (;;) {
          const size_t start = next.fetch_add(grain, std::memory_order_relaxed);
          if (start >= n || cancelled.load(std::memory_order_relaxed)) return;
          const size_t end = std::min(n, start + grain);
          for (size_t i = start; i < end; ++i) {
            if (cancelled.load(std::memory_order_relaxed)) return;
            try {
              fn(i);
            } catch (...) {
              // Cancel before queueing on error_mu, so the other workers
              // stop claiming indices while this one records the error.
              cancelled.store(true, std::memory_order_relaxed);
              {
                std::lock_guard<std::mutex> lock(error_mu);
                if (error == nullptr) error = std::current_exception();
              }
              return;
            }
          }
        }
      });
    }
    pool.Wait();
  }
  if (error != nullptr) std::rethrow_exception(error);
}

inline void ParallelFor(size_t jobs, size_t n,
                        const std::function<void(size_t)>& fn) {
  ParallelFor(jobs, n, /*grain=*/1, fn);
}

/// results[i] = fn(i) for i in [0, n), computed on up to `jobs` threads and
/// collected in index order — the output is identical at any job count.
/// R needs to be movable, not default-constructible.
template <typename Fn>
auto ParallelMap(size_t jobs, size_t n, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(size_t{0}))>> {
  using R = std::decay_t<decltype(fn(size_t{0}))>;
  std::vector<std::optional<R>> slots(n);
  ParallelFor(jobs, n, [&](size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(n);
  for (std::optional<R>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace viewmat::common

#endif  // VIEWMAT_COMMON_PARALLEL_H_
