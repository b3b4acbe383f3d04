// Workspace arena semantics: pointer stability, scope rewind, grow-only
// capacity, per-thread isolation.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace snnsec::util {
namespace {

TEST(Workspace, AllocationsAreAlignedAndDisjoint) {
  Workspace ws;
  float* a = ws.alloc<float>(1000);
  float* b = ws.alloc<float>(1000);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  // Writing through one must not clobber the other.
  for (int i = 0; i < 1000; ++i) a[i] = 1.0f;
  for (int i = 0; i < 1000; ++i) b[i] = 2.0f;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a[i], 1.0f);
    EXPECT_EQ(b[i], 2.0f);
  }
}

TEST(Workspace, ScopeRewindReusesMemoryWithoutNewBlocks) {
  Workspace ws;
  float* first = nullptr;
  {
    Workspace::Scope scope(ws);
    first = ws.alloc<float>(4096);
  }
  const std::size_t blocks_after_warmup = ws.block_allocations();
  for (int round = 0; round < 100; ++round) {
    Workspace::Scope scope(ws);
    float* p = ws.alloc<float>(4096);
    EXPECT_EQ(p, first);  // same bytes handed back every round
  }
  EXPECT_EQ(ws.block_allocations(), blocks_after_warmup);
}

TEST(Workspace, GrowsAcrossBlocksWithStablePointers) {
  Workspace ws;
  Workspace::Scope scope(ws);
  // Force several block appends; earlier pointers must stay valid and keep
  // their contents (blocks never move).
  std::vector<float*> ptrs;
  constexpr std::size_t kChunk = 1 << 18;  // 1 MiB of floats per alloc
  for (int i = 0; i < 12; ++i) {
    float* p = ws.alloc<float>(kChunk);
    p[0] = static_cast<float>(i);
    p[kChunk - 1] = static_cast<float>(100 + i);
    ptrs.push_back(p);
  }
  EXPECT_GE(ws.block_allocations(), 2u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(ptrs[static_cast<std::size_t>(i)][0], static_cast<float>(i));
    EXPECT_EQ(ptrs[static_cast<std::size_t>(i)][kChunk - 1],
              static_cast<float>(100 + i));
  }
}

TEST(Workspace, RecurringOversizedAllocationReusesGrownBlock) {
  // Regression: a per-round request too big for the early blocks must land
  // in the block a previous round grew for it. A version that only checked
  // the immediately-next block appended (and zeroed) a fresh block every
  // round — an unbounded steady-state leak that took a training loop from
  // ~100 MB to tens of GB.
  Workspace ws;
  constexpr std::size_t kBig = (4u << 20) / sizeof(float);  // 4 MiB > kMinBlock
  {
    Workspace::Scope scope(ws);
    ws.alloc<float>(64);    // occupies the small head block
    ws.alloc<float>(kBig);  // forces growth past it
  }
  const std::size_t blocks_after_warmup = ws.block_allocations();
  const std::size_t capacity_after_warmup = ws.capacity();
  for (int round = 0; round < 50; ++round) {
    Workspace::Scope scope(ws);
    ws.alloc<float>(64);
    float* p = ws.alloc<float>(kBig);
    p[0] = p[kBig - 1] = static_cast<float>(round);
  }
  EXPECT_EQ(ws.block_allocations(), blocks_after_warmup);
  EXPECT_EQ(ws.capacity(), capacity_after_warmup);
}

TEST(Workspace, NestedScopesRewindInStackOrder) {
  Workspace ws;
  Workspace::Scope outer(ws);
  float* a = ws.alloc<float>(64);
  a[0] = 42.0f;
  {
    Workspace::Scope inner(ws);
    float* b = ws.alloc<float>(64);
    b[0] = 7.0f;
  }
  // Inner scope released its allocation; the next alloc reuses those bytes
  // while the outer allocation is untouched.
  float* c = ws.alloc<float>(64);
  (void)c;
  EXPECT_EQ(a[0], 42.0f);
}

TEST(Workspace, LocalIsPerThread) {
  Workspace* main_ws = &Workspace::local();
  Workspace* worker_ws = nullptr;
  std::thread t([&] { worker_ws = &Workspace::local(); });
  t.join();
  ASSERT_NE(worker_ws, nullptr);
  EXPECT_NE(main_ws, worker_ws);
}

TEST(Workspace, PoolWorkersAllocateConcurrentlyWithoutAliasing) {
  // Each parallel chunk fills its own arena allocation with a chunk-unique
  // value; any cross-thread aliasing would show up as torn contents.
  parallel_for_chunked(
      0, 64, kMinParallelWork, [](std::int64_t lo, std::int64_t) {
        Workspace& ws = Workspace::local();
        Workspace::Scope scope(ws);
        const float tag = static_cast<float>(lo);
        float* p = ws.alloc<float>(20000);
        for (int i = 0; i < 20000; ++i) p[i] = tag;
        for (int i = 0; i < 20000; ++i) ASSERT_EQ(p[i], tag);
      });
}

TEST(Workspace, RejectsBadAlignment) {
  Workspace ws;
  EXPECT_THROW(ws.allocate(16, 3), Error);
  EXPECT_THROW(ws.allocate(16, 0), Error);
}

}  // namespace
}  // namespace snnsec::util
