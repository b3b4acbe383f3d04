// Global operator new/delete replaced for the benchmark binaries only, so
// serve.allocs_per_req is a measured count (same device as bench_serve).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

namespace perfbench {
std::int64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace perfbench

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
