// Thread pool and parallel_for semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/metrics_hooks.hpp"
#include "util/thread_pool.hpp"

namespace snnsec::util {
namespace {

/// Task that bumps the std::atomic<int> it is posted with.
void count_task(void* p, std::size_t) {
  static_cast<std::atomic<int>*>(p)->fetch_add(1);
}

/// Block until every task posted to `worker` so far has run: a worker runs
/// its tasks in posting order, so a sentinel queued behind them runs last.
void drain(ThreadPool& pool, std::size_t worker) {
  struct Sentinel {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
  } sentinel;
  pool.post(
      worker,
      [](void* p, std::size_t) {
        Sentinel& s = *static_cast<Sentinel*>(p);
        // Notify under the lock: the waiter cannot return and destroy the
        // sentinel before this critical section ends.
        std::lock_guard lock(s.m);
        s.done = true;
        s.cv.notify_one();
      },
      &sentinel);
  std::unique_lock lock(sentinel.m);
  sentinel.cv.wait(lock, [&sentinel] { return sentinel.done; });
}

TEST(ThreadPool, RunsEveryPostedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (std::size_t i = 0; i < 100; ++i)
      pool.post(i % pool.size(), count_task, &count);
  }  // the destructor runs every queued task before joining
  EXPECT_EQ(count.load(), 100);
}

// Work at the fan-out threshold: the range goes to the pool whenever it has
// more than one thread.
constexpr std::int64_t kFanOut = kMinParallelWork;

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, kFanOut,
               [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoops) {
  std::atomic<int> count{0};
  parallel_for(5, 5, kFanOut, [&](std::int64_t) { count++; });
  parallel_for(7, 3, kFanOut, [&](std::int64_t) { count++; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ParallelFor, NonZeroBegin) {
  std::atomic<std::int64_t> sum{0};
  parallel_for(10, 20, kFanOut, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(0, 1000, kFanOut,
                            [](std::int64_t i) {
                              if (i == 513) throw Error("boom");
                            }),
               Error);
}

TEST(ParallelForChunked, ChunksPartitionTheRange) {
  constexpr std::int64_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for_chunked(0, kN, kFanOut, [&](std::int64_t lo, std::int64_t hi) {
    ASSERT_LE(lo, hi);
    for (std::int64_t i = lo; i < hi; ++i)
      hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedCallsDegradeToSerial) {
  // A worker thread calling parallel_for must not deadlock.
  std::atomic<std::int64_t> total{0};
  parallel_for(0, 32, kFanOut, [&](std::int64_t) {
    parallel_for(0, 32, kFanOut, [&](std::int64_t) { total++; });
  });
  EXPECT_EQ(total.load(), 32 * 32);
}

TEST(ParallelForChunked, SmallWorkRunsOnceOnTheCallingThread) {
  // Below the threshold the whole range is one inline call: no chunking,
  // no pool thread, whatever the pool size.
  struct Call {
    std::int64_t lo, hi;
    std::thread::id thread;
  };
  std::vector<Call> calls;  // not guarded: a single inline call expected
  parallel_for_chunked(0, 100, kMinParallelWork - 1,
                       [&calls](std::int64_t lo, std::int64_t hi) {
                         calls.push_back({lo, hi, std::this_thread::get_id()});
                       });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].lo, 0);
  EXPECT_EQ(calls[0].hi, 100);
  EXPECT_EQ(calls[0].thread, std::this_thread::get_id());

  std::vector<std::thread::id> ids(100);
  parallel_for(0, 100, kMinParallelWork - 1, [&ids](std::int64_t i) {
    ids[static_cast<std::size_t>(i)] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ids)
    EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ParallelForChunked, WorkAtTheThresholdFansOut) {
  // The counterpart: at the threshold every chunk runs on a pool thread, so
  // the tests that pass kFanOut do reach the fan-out and its join.
  const auto threads =
      static_cast<std::int64_t>(ThreadPool::global().size());
  if (threads < 2) GTEST_SKIP() << "one-thread pool runs every range inline";
  std::vector<std::thread::id> ids(static_cast<std::size_t>(threads));
  parallel_for_chunked(0, threads, kFanOut,
                       [&ids](std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t i = lo; i < hi; ++i)
                           ids[static_cast<std::size_t>(i)] =
                               std::this_thread::get_id();
                       });
  for (const std::thread::id id : ids)
    EXPECT_NE(id, std::this_thread::get_id());
}

std::atomic<int> g_task_exceptions{0};

TEST(ThreadPool, ThrowingPostedTaskIsCountedAndPoolSurvives) {
  // Regression: worker_loop ran the task unprotected, so a throwing task
  // escaped the worker thread (std::terminate). The worker must swallow it,
  // count it in pool.task_exceptions and go on with its queue.
  MetricsHooks& hooks = metrics_hooks();
  struct Restore {
    MetricsHooks& hooks;
    MetricsHooks saved;
    ~Restore() { hooks = saved; }
  } restore{hooks, hooks};
  hooks = MetricsHooks{};
  hooks.counter_add = [](const char* name, std::int64_t delta) {
    if (std::string_view(name) == "pool.task_exceptions")
      g_task_exceptions.fetch_add(static_cast<int>(delta));
  };
  g_task_exceptions.store(0);
  const ThreadPool::TaskFn count_then_throw = [](void* p, std::size_t) {
    count_task(p, 0);
    throw Error("boom");
  };
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (std::size_t i = 0; i < 8; ++i)  // tasks 0, 1, 4, 5 throw
      pool.post(i % 2, (i / 2) % 2 == 0 ? count_then_throw : count_task, &ran);
    // Each worker must still run what is queued behind its throwing tasks.
    for (std::size_t i = 0; i < 16; ++i) pool.post(i % 2, count_task, &ran);
  }
  EXPECT_EQ(ran.load(), 24);
  EXPECT_EQ(g_task_exceptions.load(), 4);
}

TEST(ThreadPool, ThrowingTaskOnGlobalPoolLeavesParallelForWorking) {
  ThreadPool& pool = ThreadPool::global();
  pool.post(0, [](void*, std::size_t) { throw Error("swallowed"); }, nullptr);
  drain(pool, 0);
  // Subsequent parallel_for_chunked calls on the same pool must be intact.
  std::atomic<std::int64_t> sum{0};
  parallel_for_chunked(0, 1000, kFanOut, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 499500);
}

TEST(ParallelForChunked, PropagatesFirstExceptionWithoutHanging) {
  // Threaded stress: many chunks throw concurrently; exactly one exception
  // (the first) must surface on the caller, and the call must not hang or
  // leave the pool wedged for later work.
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for_chunked(
          0, 10000, kFanOut, [&](std::int64_t lo, std::int64_t) {
            throw Error("chunk " + std::to_string(lo));
          });
      FAIL() << "expected an exception";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("chunk"), std::string::npos);
    }
  }
  std::atomic<int> count{0};
  parallel_for(0, 100, kFanOut, [&](std::int64_t) { count++; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForStress, ManyTinyRangesJoinCleanly) {
  // Regression for a use-after-scope in the fan-out join: a worker bumped
  // the completion count, released the lock and only then notified the
  // stack-resident condition variable — by which time the caller could have
  // seen the final count, returned and reused that stack frame. Many tiny
  // back-to-back ranges, each declared at the fan-out threshold so it does
  // reach the pool, make the window as likely as it gets; ctest also
  // runs this test with SNNSEC_THREADS=4 (test_util_threadpool_stress) so
  // the join is exercised on any host.
  std::int64_t total = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::int64_t n = 2 + round % 3;
    std::atomic<std::int64_t> sum{0};
    parallel_for(0, n, kFanOut, [&sum](std::int64_t i) { sum += i + 1; });
    total += sum.load();
  }
  std::int64_t want = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::int64_t n = 2 + round % 3;
    want += n * (n + 1) / 2;
  }
  EXPECT_EQ(total, want);
}

TEST(ThreadPool, PostedTasksRunInOrderOnTheirWorkerThroughRingGrowth) {
  // post() queues a task on one thread's ring, which doubles when full.
  // Advance the ring's head, hold its worker, then post far past its
  // capacity so it grows while wrapped: every task must still run once, in
  // order, on the thread it was posted to.
  ThreadPool pool(2);
  struct Log {
    std::atomic<bool> release{false};
    std::vector<int> order;  // appended to by worker 1 only
    std::vector<std::size_t> ran_on;
  } log;
  struct Item {
    Log* log;
    int id;
  };
  constexpr int kTasks = 100;
  std::vector<Item> items;
  for (int i = 0; i < kTasks; ++i) items.push_back({&log, i});
  const ThreadPool::TaskFn record = [](void* p, std::size_t worker) {
    const Item& it = *static_cast<Item*>(p);
    it.log->order.push_back(it.id);
    it.log->ran_on.push_back(worker);
  };
  const ThreadPool::TaskFn hold = [](void* p, std::size_t) {
    auto& l = *static_cast<Log*>(p);
    while (!l.release.load()) std::this_thread::yield();
  };
  for (int i = 0; i < 10; ++i) pool.post(1, record, &items[i]);
  drain(pool, 1);
  pool.post(1, hold, &log);
  for (int i = 10; i < kTasks; ++i) pool.post(1, record, &items[i]);
  log.release.store(true);
  drain(pool, 1);
  std::vector<int> want(kTasks);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(log.order, want);
  EXPECT_EQ(log.ran_on, std::vector<std::size_t>(kTasks, 1));
}

TEST(ThreadPool, ThrowingMetricsHookLosesNoTask) {
  // The pool emits metrics through installed hooks around each handoff, and
  // a hook may throw. A task that is already queued must still run exactly
  // once: post() must not unwind as if it had not queued the task, and the
  // worker must neither drop the task it took nor die.
  MetricsHooks& hooks = metrics_hooks();
  struct Restore {
    MetricsHooks& hooks;
    MetricsHooks saved;
    ~Restore() { hooks = saved; }
  } restore{hooks, hooks};
  hooks.enabled = [] { return true; };
  hooks.counter_add = [](const char*, std::int64_t) { throw Error("hook"); };
  hooks.gauge_set = [](const char*, double) { throw Error("hook"); };
  hooks.histogram_observe = [](const char*, double, const double*,
                               std::size_t) { throw Error("hook"); };
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (std::size_t i = 0; i < 8; ++i) pool.post(i % 2, count_task, &ran);
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelForChunked, RunsEachChunkOnTheSameThreadEveryCall) {
  // A thread's scratch arena is warm only for the chunks that thread has
  // run, so the zero-alloc steady state needs a fixed shape's chunks to land
  // on the same threads on every call.
  constexpr std::int64_t kN = 64;
  std::vector<std::thread::id> first(kN), again(kN);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::thread::id>& ids = round == 0 ? first : again;
    parallel_for_chunked(
        0, kN, kFanOut, [&ids](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i)
            ids[static_cast<std::size_t>(i)] = std::this_thread::get_id();
        });
    if (round > 0) {
      EXPECT_EQ(again, first) << "round " << round;
    }
  }
}

TEST(ThreadPoolGlobal, IsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

}  // namespace
}  // namespace snnsec::util
