// Minimal work-stealing-free thread pool with a blocking parallel_for.
//
// The library's hot loops (GEMM tiles, per-sample attack generation, grid
// cells in the explorer) are embarrassingly parallel, so a simple
// static-partition parallel_for over a shared pool is enough. The pool is a
// process-wide singleton sized from the hardware, overridable via the
// SNNSEC_THREADS environment variable (SNNSEC_THREADS=1 gives fully
// deterministic serial execution regardless of reduction order).
//
// parallel_for pins chunk i of a range to pool thread i and posts it as a
// non-owning task into that thread's own queue, so neither the dispatch nor
// the per-thread scratch the chunks use allocates once the pool is warm.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace snnsec::util {

class ThreadPool {
 public:
  /// A non-owning task: run(arg, worker), where worker is the index of the
  /// pool thread running it.
  using TaskFn = void (*)(void* arg, std::size_t worker);

  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue run(arg, worker) on pool thread `worker` (< size()), behind
  /// whatever that thread already has queued; each thread runs its tasks in
  /// posting order. The caller keeps *arg alive until run has returned.
  /// run should not throw: if it does, the worker swallows the exception,
  /// counts it in pool.task_exceptions and goes on with its next task.
  /// Allocates nothing unless the worker's task ring is full; the ring then
  /// doubles and never shrinks. The destructor runs every task already
  /// posted before it joins the threads.
  void post(std::size_t worker, TaskFn run, void* arg);

  /// Process-wide pool (lazily constructed; size from SNNSEC_THREADS or
  /// hardware_concurrency).
  static ThreadPool& global();

 private:
  /// Queued task plus its enqueue time (only stamped while the metrics
  /// registry is enabled; a default time_point means "not measured").
  struct Task {
    TaskFn run = nullptr;
    void* arg = nullptr;
    std::chrono::steady_clock::time_point enqueued{};
  };

  /// FIFO of tasks in a ring buffer. It grows (doubling) only when full and
  /// never shrinks, so a warm pool queues without allocating.
  class TaskRing {
   public:
    explicit TaskRing(std::size_t capacity) : slots_(capacity) {}
    bool empty() const { return count_ == 0; }
    void put(const Task& task);
    Task take();  ///< the oldest task; the ring must not be empty

   private:
    std::vector<Task> slots_;
    std::size_t head_ = 0;  ///< oldest task; count_ tasks follow, wrapping
    std::size_t count_ = 0;
  };

  struct Worker {
    TaskRing inbox{16};  ///< this thread's tasks, run in posting order
    std::condition_variable cv;
    std::thread thread;
  };

  void worker_loop(std::size_t index);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t queued_ = 0;  ///< tasks in every inbox
  std::mutex mutex_;
  bool stop_ = false;
};

/// True on a thread owned by the global pool. Nested parallel_for calls on
/// such threads run serially — a worker must never block on its own pool.
bool inside_pool_worker();

namespace detail {
/// Non-owning reference to a callable fn(lo, hi): the object plus a thunk
/// that calls it. No type erasure onto the heap, whatever fn captures.
struct ChunkFnRef {
  void* obj;
  void (*call)(void* obj, std::int64_t lo, std::int64_t hi);
};

/// Out-of-line fan-out/join core; only reached when the work will actually
/// be dispatched to the pool. The whole job lives on this call's stack.
void parallel_for_chunked_impl(std::int64_t begin, std::int64_t end,
                               std::int64_t workers, ChunkFnRef fn);
}  // namespace detail

/// The library's one fan-out rule: a range whose declared work is below
/// this many element operations runs inline on the caller. A fan-out pays a
/// wake and a join per pool thread, microseconds that only ranges of this
/// size earn back; a batch-1 serving step has no stage this large.
inline constexpr std::int64_t kMinParallelWork = std::int64_t{1} << 16;

/// Hand contiguous [lo, hi) chunks of [begin, end) to the global pool and
/// block until all finish. `work` is the whole range's inner-loop element
/// operations (multiply-adds, copies), computed by the caller from the
/// shapes it already has. Exceptions thrown by fn are rethrown on the
/// caller (first one wins). Inline — fn(begin, end) on the caller — when
/// the range is empty, work < kMinParallelWork, the pool has one thread,
/// or the caller is itself a pool worker. The parallel path runs chunk i
/// on pool thread i, passing fn by reference to tasks posted from a
/// stack-resident job; neither path allocates.
template <typename Fn>
void parallel_for_chunked(std::int64_t begin, std::int64_t end,
                          std::int64_t work, Fn&& fn) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (work < kMinParallelWork || inside_pool_worker()) {
    fn(begin, end);
    return;
  }
  const std::int64_t workers = std::min<std::int64_t>(
      static_cast<std::int64_t>(ThreadPool::global().size()), n);
  if (workers <= 1) {
    fn(begin, end);
    return;
  }
  using F = std::remove_reference_t<Fn>;
  const detail::ChunkFnRef ref{
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
      [](void* obj, std::int64_t lo, std::int64_t hi) {
        (*static_cast<F*>(obj))(lo, hi);
      }};
  detail::parallel_for_chunked_impl(begin, end, workers, ref);
}

/// Run fn(i) for i in [begin, end) across the global pool. Same `work`,
/// inline rule and exception contract as parallel_for_chunked.
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t work,
                  Fn&& fn) {
  parallel_for_chunked(begin, end, work,
                       [&fn](std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t i = lo; i < hi; ++i) fn(i);
                       });
}

}  // namespace snnsec::util
