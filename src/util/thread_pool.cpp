#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <iterator>

#include "util/error.hpp"
#include "util/metrics_hooks.hpp"

namespace snnsec::util {

namespace {
// Set inside pool workers so nested parallel_for calls degrade to serial
// execution instead of deadlocking (a worker must never block on the pool).
thread_local bool g_inside_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  Task entry;
  entry.fn = std::move(task);
  if (metrics::enabled())
    entry.enqueued = std::chrono::steady_clock::now();
  std::size_t depth;
  {
    // NOLINTNEXTLINE(snnsec-hot-path-lock): queue handoff, O(1) critical section
    std::lock_guard lock(mutex_);
    SNNSEC_CHECK(!stop_, "submit() on stopped ThreadPool");
    // NOLINTNEXTLINE(snnsec-hot-path-alloc): deque growth amortized, steady state reuses blocks
    tasks_.push(std::move(entry));
    ++in_flight_;
    depth = tasks_.size();
  }
  metrics::counter_add("pool.tasks", 1);
  metrics::gauge_set("pool.queue_depth", static_cast<double>(depth));
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  // Mark the thread once for its whole lifetime: it is always a pool worker,
  // so nested parallel_for calls degrade to serial, and a throwing task can
  // never leave the flag stale the way a set/clear pair around each task
  // could.
  g_inside_pool_worker = true;
  for (;;) {
    Task task;
    std::size_t depth;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      depth = tasks_.size();
    }
    metrics::gauge_set("pool.queue_depth", static_cast<double>(depth));
    if (task.enqueued != std::chrono::steady_clock::time_point{}) {
      const double wait_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - task.enqueued)
              .count();
      static constexpr double kWaitBoundsMs[] = {0.01, 0.1, 1.0,
                                                 10.0, 100.0, 1000.0};
      metrics::histogram_observe("pool.task_wait_ms", wait_ms, kWaitBoundsMs,
                                 std::size(kWaitBoundsMs));
    }
    // in_flight_ must reach zero even when the task throws — otherwise
    // wait_idle() deadlocks — so the decrement is RAII, not a statement
    // after the call.
    struct InFlightGuard {
      ThreadPool& pool;
      ~InFlightGuard() {
        std::lock_guard lock(pool.mutex_);
        if (--pool.in_flight_ == 0) pool.cv_idle_.notify_all();
      }
    } guard{*this};
    try {
      task.fn();
    } catch (...) {
      // A raw submit() has no caller to deliver the exception to
      // (parallel_for catches and rethrows its own); letting it escape a
      // worker thread would std::terminate the process mid-sweep. Swallow
      // it, count the drop, keep the worker alive.
      metrics::counter_add("pool.task_exceptions", 1);
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("SNNSEC_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n >= 1) return static_cast<std::size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 4 : hw);
  }());
  return pool;
}

bool inside_pool_worker() { return g_inside_pool_worker; }

void detail::parallel_for_chunked_impl(
    std::int64_t begin, std::int64_t end, std::int64_t workers,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  const std::int64_t n = end - begin;
  ThreadPool& pool = ThreadPool::global();
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const std::int64_t chunk = (n + workers - 1) / workers;
  std::atomic<std::int64_t> done{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::int64_t launched = 0;
  for (std::int64_t lo = begin; lo < end; lo += chunk) {
    const std::int64_t hi = std::min(end, lo + chunk);
    ++launched;
    pool.submit([&, lo, hi] {
      try {
        // NOLINTNEXTLINE(snnsec-relaxed-atomic): advisory probe, exchange is seq_cst
        if (!failed.load(std::memory_order_relaxed)) fn(lo, hi);
      } catch (...) {
        // NOLINTNEXTLINE(snnsec-hot-path-lock): first-error latch, exception path only
        std::lock_guard lock(error_mutex);
        if (!failed.exchange(true)) first_error = std::current_exception();
      }
      // Notify while still holding done_mutex: the caller's wait cannot
      // observe done == launched, return and destroy the stack-resident cv
      // until this critical section ends, i.e. after the notify is done.
      // NOLINTNEXTLINE(snnsec-hot-path-lock): completion count, O(1) critical section
      std::lock_guard lock(done_mutex);
      ++done;
      done_cv.notify_one();
    });
  }
  {
    // NOLINTNEXTLINE(snnsec-hot-path-lock): join barrier, fan-out caller must block here
    std::unique_lock lock(done_mutex);
    done_cv.wait(lock, [&] { return done.load() == launched; });
  }
  if (failed.load()) std::rethrow_exception(first_error);
}

}  // namespace snnsec::util
