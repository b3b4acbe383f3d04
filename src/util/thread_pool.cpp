#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <memory>

#include "util/error.hpp"
#include "util/metrics_hooks.hpp"

namespace snnsec::util {

namespace {
// Set inside pool workers so nested parallel_for calls degrade to serial
// execution instead of deadlocking (a worker must never block on the pool).
thread_local bool g_inside_pool_worker = false;

// Metrics are best-effort. A hook that throws (a registry allocating its
// first series, say) must not cost the pool a task it has already queued or
// taken, so the emits around a handoff swallow their own errors.
template <typename Emit>
void emit_metrics(const Emit& emit) noexcept {
  try {
    emit();
  } catch (...) {
  }
}
}  // namespace

void ThreadPool::TaskRing::put(const Task& task) {
  if (count_ == slots_.size()) {
    // Double, then move the wrapped prefix [0, head_) to just past the old
    // end so the queue runs contiguously from head_ again.
    const std::size_t old = slots_.size();
    // NOLINTNEXTLINE(snnsec-hot-path-alloc): the ring grows only when full and never shrinks
    slots_.resize(2 * old);
    std::copy_n(slots_.begin(), head_,
                slots_.begin() + static_cast<std::ptrdiff_t>(old));
  }
  slots_[(head_ + count_) % slots_.size()] = task;
  ++count_;
}

ThreadPool::Task ThreadPool::TaskRing::take() {
  const Task task = slots_[head_];
  head_ = (head_ + 1) % slots_.size();
  --count_;
  return task;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.push_back(std::make_unique<Worker>());
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  for (auto& w : workers_) w->cv.notify_all();
  for (auto& w : workers_) w->thread.join();
}

void ThreadPool::post(std::size_t worker, TaskFn run, void* arg) {
  SNNSEC_CHECK(worker < workers_.size(),
               "post() to worker " << worker << " of " << workers_.size());
  Worker& target = *workers_[worker];
  Task entry{run, arg, {}};
  if (metrics::enabled())
    entry.enqueued = std::chrono::steady_clock::now();
  std::size_t depth;
  {
    // NOLINTNEXTLINE(snnsec-hot-path-lock): queue handoff, O(1) critical section
    std::lock_guard lock(mutex_);
    SNNSEC_CHECK(!stop_, "post() on stopped ThreadPool");
    target.inbox.put(entry);
    depth = ++queued_;
  }
  // The task is queued now, so nothing below may throw: the caller would
  // unwind as if it had not been posted while a worker still runs it.
  target.cv.notify_one();
  emit_metrics([depth] {
    metrics::counter_add("pool.tasks", 1);
    metrics::gauge_set("pool.queue_depth", static_cast<double>(depth));
  });
}

void ThreadPool::worker_loop(std::size_t index) {
  // Mark the thread once for its whole lifetime: it is always a pool worker,
  // so nested parallel_for calls degrade to serial, and a throwing task can
  // never leave the flag stale the way a set/clear pair around each task
  // could.
  g_inside_pool_worker = true;
  Worker& self = *workers_[index];
  for (;;) {
    Task task;
    std::size_t depth;
    {
      std::unique_lock lock(mutex_);
      self.cv.wait(lock, [&] { return stop_ || !self.inbox.empty(); });
      if (self.inbox.empty()) return;  // stopped, and nothing left to run
      task = self.inbox.take();
      depth = --queued_;
    }
    emit_metrics([&task, depth] {
      metrics::gauge_set("pool.queue_depth", static_cast<double>(depth));
      if (task.enqueued == std::chrono::steady_clock::time_point{}) return;
      const double wait_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - task.enqueued)
              .count();
      static constexpr double kWaitBoundsMs[] = {0.01, 0.1, 1.0,
                                                 10.0, 100.0, 1000.0};
      metrics::histogram_observe("pool.task_wait_ms", wait_ms, kWaitBoundsMs,
                                 std::size(kWaitBoundsMs));
    });
    try {
      task.run(task.arg, index);
    } catch (...) {
      // Safety net: post() asks for tasks that do not throw (parallel_for's
      // catch and latch their own), and a worker has no caller to hand an
      // exception to. Letting one escape would std::terminate the process
      // mid-sweep, so swallow it, count it and keep the worker alive.
      emit_metrics([] { metrics::counter_add("pool.task_exceptions", 1); });
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

namespace {

/// One parallel_for_chunked call's fan-out state. It lives on the caller's
/// stack, which is safe because the caller blocks until every posted task
/// has joined; the tasks only hold a pointer to it.
struct ChunkJob {
  detail::ChunkFnRef fn{};
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t chunk = 0;
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::int64_t done = 0;  ///< tasks finished; guarded by done_mutex
  std::mutex done_mutex;
  std::condition_variable done_cv;
};

}  // namespace

void detail::parallel_for_chunked_impl(std::int64_t begin, std::int64_t end,
                                       std::int64_t workers, ChunkFnRef fn) {
  const std::int64_t n = end - begin;
  ThreadPool& pool = ThreadPool::global();
  ChunkJob job;
  job.fn = fn;
  job.begin = begin;
  job.end = end;
  job.chunk = (n + workers - 1) / workers;
  // Pool task: chunk i of the range, run on pool thread i. Pinning chunks to
  // threads makes each thread's scratch (its Workspace arena) see the same
  // chunk on every call of a fixed shape, so one call warms all of them.
  // Never throws.
  const auto run_chunk = [](void* p, std::size_t worker) {
    ChunkJob& self = *static_cast<ChunkJob*>(p);
    const std::int64_t lo =
        self.begin + static_cast<std::int64_t>(worker) * self.chunk;
    const std::int64_t hi = std::min(self.end, lo + self.chunk);
    try {
      // NOLINTNEXTLINE(snnsec-relaxed-atomic): advisory probe, exchange is seq_cst
      if (!self.failed.load(std::memory_order_relaxed))
        self.fn.call(self.fn.obj, lo, hi);
    } catch (...) {
      // NOLINTNEXTLINE(snnsec-hot-path-lock): first-error latch, exception path only
      std::lock_guard lock(self.error_mutex);
      if (!self.failed.exchange(true))
        self.first_error = std::current_exception();
    }
    // Notify while still holding done_mutex: the caller's wait cannot see the
    // last completion, return and destroy the stack-resident job until this
    // critical section ends, i.e. after the notify is done. Nothing touches
    // the job after the unlock.
    // NOLINTNEXTLINE(snnsec-hot-path-lock): completion count, O(1) critical section
    std::lock_guard lock(self.done_mutex);
    ++self.done;
    self.done_cv.notify_one();
  };
  const std::int64_t tasks = (n + job.chunk - 1) / job.chunk;
  // The job must outlive every task posted, so a failing post (a full ring
  // that cannot grow) still joins the tasks already out before unwinding.
  std::int64_t posted = 0;
  std::exception_ptr post_error;
  try {
    for (; posted < tasks; ++posted)
      pool.post(static_cast<std::size_t>(posted), run_chunk, &job);
  } catch (...) {
    post_error = std::current_exception();
  }
  {
    // NOLINTNEXTLINE(snnsec-hot-path-lock): join barrier, fan-out caller must block here
    std::unique_lock lock(job.done_mutex);
    job.done_cv.wait(lock, [&] { return job.done == posted; });
  }
  if (post_error) std::rethrow_exception(post_error);
  if (job.failed.load()) std::rethrow_exception(job.first_error);
}

}  // namespace snnsec::util
