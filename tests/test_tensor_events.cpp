// Event-driven spike kernels: compressed event lists, the event-accumulate
// GEMM, both conv formulations (patch-list reference and production
// scatter), the zero-alloc steady state of the layers and of whole
// AnytimeRunner batches, and the fan-out a serving step does not make.
//
// The determinism assertions here are the teeth behind DESIGN.md §14: the
// event kernels must be bit-identical across batch sizes and serial/parallel
// execution, because layers resolve a kernel once and serve relies on
// replicas agreeing to the bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "obs/metrics.hpp"
#include "snn/anytime.hpp"
#include "snn/spiking_lenet.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/spike_events.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

// Counting operator-new hook for the zero-allocation steady-state tests.
// Counts every heap allocation in the binary; tests snapshot the counter
// around warmed-up hot-path calls and assert the delta is zero.
//
// GCC's -Wmismatched-new-delete heuristic misfires when it inlines these
// replacements into gtest internals (new -> malloc paired with free IS the
// matched path here); same device as the bench binaries, which happen not
// to trip the inliner.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

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

namespace snnsec::tensor {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Spike-like operand: bernoulli(rate) mask times non-binary magnitudes, so
/// the tests cover graded events (pooled rates, weighted spikes), not just
/// 0/1 slabs.
Tensor spike_operand(Shape shape, double rate, util::Rng& rng) {
  Tensor mask = Tensor::bernoulli(shape, rng, rate);
  const Tensor mag = Tensor::rand_uniform(shape, rng, 0.5f, 1.5f);
  float* pm = mask.data();
  const float* pg = mag.data();
  for (std::int64_t i = 0; i < mask.numel(); ++i) pm[i] *= pg[i];
  return mask;
}

/// Tasks posted to the global pool so far: its pool.tasks counter.
std::int64_t pool_tasks() {
  return obs::Registry::instance().counter("pool.tasks").value();
}

/// Whether a fan-out would show in pool_tasks(): it needs a pool of more
/// than one thread and the metrics registry on.
bool fan_out_observable() {
  return util::ThreadPool::global().size() > 1 && obs::Registry::enabled();
}

/// Naive dense reference for C = alpha * A * op(B) + beta * C.
void ref_gemm(const Tensor& a, const Tensor& b, Trans trans_b, float alpha,
              float beta, Tensor& c) {
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = (trans_b == Trans::kNo) ? b.dim(1) : b.dim(0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float bv =
            (trans_b == Trans::kNo) ? b.at({p, j}) : b.at({j, p});
        acc += static_cast<double>(a.at({i, p})) * bv;
      }
      c.at({i, j}) =
          static_cast<float>(alpha * acc + static_cast<double>(beta) *
                                               static_cast<double>(c.at({i, j})));
    }
}

TEST(BuildEventRows, CompressesRowsInColumnOrder) {
  // 4 rows x 5 cols embedded in lda = 7 (strided view): an empty row, a
  // full row, and rows with scattered events. The padding columns (>= 5)
  // must never be read.
  const std::int64_t rows = 4, cols = 5, lda = 7;
  std::vector<float> a(static_cast<std::size_t>(rows * lda), 9.0f);
  auto set_row = [&](std::int64_t r, std::initializer_list<float> vals) {
    std::int64_t j = 0;
    for (float v : vals) a[static_cast<std::size_t>(r * lda + j++)] = v;
  };
  set_row(0, {0.0f, 2.0f, 0.0f, 0.0f, -1.0f});
  set_row(1, {0.0f, 0.0f, 0.0f, 0.0f, 0.0f});  // silent row
  set_row(2, {1.0f, 1.0f, 1.0f, 1.0f, 1.0f});  // saturated row
  set_row(3, {0.0f, 0.0f, 0.5f, 0.0f, 0.0f});

  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  const EventRows ev = build_event_rows(a.data(), lda, rows, cols, ws);
  ASSERT_EQ(ev.rows, rows);
  ASSERT_EQ(ev.cols, cols);
  ASSERT_GE(ev.stride, cols);

  EXPECT_EQ(ev.count[0], 2);
  EXPECT_EQ(ev.count[1], 0);
  EXPECT_EQ(ev.count[2], 5);
  EXPECT_EQ(ev.count[3], 1);
  // Row 0: events at columns 1 and 4, in increasing column order.
  EXPECT_EQ(ev.index[0 * ev.stride + 0], 1);
  EXPECT_EQ(ev.index[0 * ev.stride + 1], 4);
  EXPECT_EQ(ev.value[0 * ev.stride + 0], 2.0f);
  EXPECT_EQ(ev.value[0 * ev.stride + 1], -1.0f);
  // Row 2: all five columns.
  for (std::int32_t e = 0; e < 5; ++e)
    EXPECT_EQ(ev.index[2 * ev.stride + e], e);
  EXPECT_EQ(ev.index[3 * ev.stride + 0], 2);
  EXPECT_EQ(ev.value[3 * ev.stride + 0], 0.5f);
}

TEST(GemmEvents, MatchesDenseAcrossFiringRates) {
  // The acceptance-relevant rates: 1% (near-silent), 5/20% (SNN operating
  // points), 50% (worst case where the event path must still be correct).
  util::Workspace& ws = util::Workspace::local();
  for (const double rate : {0.01, 0.05, 0.20, 0.50}) {
    util::Rng rng(static_cast<std::uint64_t>(rate * 1000) + 3);
    const std::int64_t m = 23, k = 67, n = 19;
    const Tensor a = spike_operand(Shape{m, k}, rate, rng);
    for (const Trans tb : {Trans::kNo, Trans::kYes}) {
      const Tensor b = Tensor::randn(
          (tb == Trans::kNo) ? Shape{k, n} : Shape{n, k}, rng);
      Tensor want = Tensor::rand_uniform(Shape{m, n}, rng, -1.0f, 1.0f);
      Tensor got = want.clone();
      ref_gemm(a, b, tb, /*alpha=*/0.75f, /*beta=*/0.5f, want);
      util::Workspace::Scope scope(ws);
      const EventRows ev = build_event_rows(a.data(), k, m, k, ws);
      gemm_events(ev, tb, n, 0.75f, b.data(), b.dim(1), 0.5f, got.data(), n);
      for (std::int64_t i = 0; i < got.numel(); ++i)
        ASSERT_NEAR(got[i], want[i], 2e-4f)
            << "rate " << rate << " trans_b " << (tb == Trans::kYes)
            << " flat " << i;
    }
  }
}

TEST(GemmEvents, StridedOperandsAndViews) {
  // Operand, B, and C all embedded with leading dimensions larger than the
  // logical widths; the guard values must survive untouched.
  const std::int64_t m = 9, k = 21, n = 11;
  const std::int64_t lda = 29, ldb = 17, ldc = 13;
  util::Rng rng(42);
  std::vector<float> abuf(static_cast<std::size_t>(m * lda), 0.0f);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < k; ++j)
      abuf[static_cast<std::size_t>(i * lda + j)] =
          (rng.uniform() < 0.2) ? static_cast<float>(rng.uniform()) : 0.0f;
  std::vector<float> bbuf(static_cast<std::size_t>(k * ldb));
  for (auto& v : bbuf) v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  std::vector<float> cbuf(static_cast<std::size_t>(m * ldc), 7.0f);

  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  const EventRows ev = build_event_rows(abuf.data(), lda, m, k, ws);
  gemm_events(ev, Trans::kNo, n, 1.0f, bbuf.data(), ldb, 0.0f, cbuf.data(),
              ldc);

  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(abuf[static_cast<std::size_t>(i * lda + p)]) *
               bbuf[static_cast<std::size_t>(p * ldb + j)];
      EXPECT_NEAR(cbuf[static_cast<std::size_t>(i * ldc + j)],
                  static_cast<float>(acc), 1e-4f);
    }
    // Guard columns beyond n are untouched.
    for (std::int64_t j = n; j < ldc; ++j)
      EXPECT_EQ(cbuf[static_cast<std::size_t>(i * ldc + j)], 7.0f);
  }
}

TEST(GemmEvents, SerialAndParallelBitIdentical) {
  // Large enough that the full call crosses the parallel threshold; a
  // single-row view of the same event lists stays serial. Rows are
  // independent, so the two must agree to the bit.
  const std::int64_t m = 128, k = 128, n = 96;
  util::Rng rng(7);
  const Tensor a = spike_operand(Shape{m, k}, 0.15, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  const EventRows ev = build_event_rows(a.data(), k, m, k, ws);

  Tensor full(Shape{m, n});
  gemm_events(ev, Trans::kNo, n, 1.0f, b.data(), n, 0.0f, full.data(), n);

  Tensor row(Shape{1, n});
  for (std::int64_t i = 0; i < m; ++i) {
    EventRows one = ev;
    one.count = ev.count + i;
    one.index = ev.index + i * ev.stride;
    one.value = ev.value + i * ev.stride;
    one.rows = 1;
    gemm_events(one, Trans::kNo, n, 1.0f, b.data(), n, 0.0f, row.data(), n);
    EXPECT_EQ(std::memcmp(row.data(), full.data() + i * n,
                          static_cast<std::size_t>(n) * sizeof(float)),
              0)
        << "row " << i << " differs between parallel and serial execution";
  }
}

TEST(BuildConvEvents, MatchesIm2rowLowering) {
  // Reconstruct the dense im2row matrix from the event lists and compare
  // with the transpose of im2col's column matrix.
  ConvGeometry g;
  g.channels = 3;
  g.height = 9;
  g.width = 7;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.pad_h = 1;
  g.pad_w = 1;
  g.validate();
  const std::int64_t batch = 2;
  util::Rng rng(11);
  const Tensor x =
      spike_operand(Shape{batch, g.channels, g.height, g.width}, 0.25, rng);

  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  const EventRows ev = build_conv_events(g, x.data(), batch, ws);
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t patch = g.patch_size();
  ASSERT_EQ(ev.rows, batch * ohw);
  ASSERT_EQ(ev.cols, patch);

  std::vector<float> cols(static_cast<std::size_t>(patch * ohw));
  for (std::int64_t i = 0; i < batch; ++i) {
    im2col(g, x.data() + i * g.channels * g.height * g.width, cols.data());
    for (std::int64_t r = 0; r < ohw; ++r) {
      std::vector<float> dense(static_cast<std::size_t>(patch), 0.0f);
      const std::int64_t row = i * ohw + r;
      std::int32_t prev = -1;
      for (std::int32_t e = 0; e < ev.count[row]; ++e) {
        const std::int32_t p = ev.index[row * ev.stride + e];
        EXPECT_GT(p, prev) << "events out of patch order";
        prev = p;
        dense[static_cast<std::size_t>(p)] = ev.value[row * ev.stride + e];
      }
      for (std::int64_t p = 0; p < patch; ++p)
        ASSERT_EQ(dense[static_cast<std::size_t>(p)],
                  cols[static_cast<std::size_t>(p * ohw + r)])
            << "sample " << i << " out-pos " << r << " patch " << p;
    }
  }
}

/// Scatter geometries: the padded 5x5 the LeNet convs use, a padded 3x3,
/// a stride-2 3x3 (the per-window scatter path; stride 1 scatters one
/// contiguous run per event and output row) and an unpadded 3x5.
ConvGeometry scatter_geometry(int which) {
  ConvGeometry g;
  switch (which) {
    case 0:
      g.channels = 2, g.height = 12, g.width = 10;
      g.kernel_h = g.kernel_w = 5;
      g.pad_h = g.pad_w = 2;
      break;
    case 1:
      g.channels = 3, g.height = 8, g.width = 8;
      g.kernel_h = g.kernel_w = 3;
      g.pad_h = g.pad_w = 1;
      break;
    case 2:
      g.channels = 3, g.height = 11, g.width = 9;
      g.kernel_h = g.kernel_w = 3;
      g.pad_h = g.pad_w = 1;
      g.stride_h = g.stride_w = 2;
      break;
    default:
      g.channels = 2, g.height = 9, g.width = 13;
      g.kernel_h = 3;
      g.kernel_w = 5;
      break;
  }
  g.validate();
  return g;
}

constexpr int kScatterGeometries = 4;

TEST(ConvEvents, ScatterMatchesPatchListReference) {
  // The production scatter kernel against the independently-tested
  // patch-list formulation. Different summation association (one event at a
  // time vs 4-way grouped), so allclose rather than bitwise.
  for (int which = 0; which < kScatterGeometries; ++which) {
    const ConvGeometry g = scatter_geometry(which);
    const std::int64_t batch = 3, cout = 7;
    const std::int64_t ohw = g.out_h() * g.out_w();
    util::Rng rng(13 + static_cast<std::uint64_t>(which));
    const Tensor x =
        spike_operand(Shape{batch, g.channels, g.height, g.width}, 0.2, rng);
    const Tensor w = Tensor::randn(Shape{cout, g.patch_size()}, rng);

    util::Workspace& ws = util::Workspace::local();
    util::Workspace::Scope scope(ws);
    std::vector<float> got(static_cast<std::size_t>(batch * ohw * cout));
    conv_events(g, x.data(), batch, w.data(), cout, got.data(), ws);

    std::vector<float> want(got.size(), 0.0f);
    {
      util::Workspace::Scope inner(ws);
      const EventRows ev = build_conv_events(g, x.data(), batch, ws);
      gemm_events(ev, Trans::kYes, cout, 1.0f, w.data(), g.patch_size(), 0.0f,
                  want.data(), cout);
    }
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_NEAR(got[i], want[i], 1e-4f)
          << "geometry " << which << " flat index " << i;
  }
}

TEST(ConvEvents, BatchedVsSingleBitIdentical) {
  // Parallelism is over the batch only and each sample's events apply in a
  // fixed scan order, so slicing the batch must not change a single bit.
  for (int which = 0; which < kScatterGeometries; ++which) {
    const ConvGeometry g = scatter_geometry(which);
    const std::int64_t batch = 5, cout = 4;
    const std::int64_t chw = g.channels * g.height * g.width;
    const std::int64_t ohw = g.out_h() * g.out_w();
    util::Rng rng(17 + static_cast<std::uint64_t>(which));
    const Tensor x = spike_operand(
        Shape{batch, g.channels, g.height, g.width}, 0.3, rng);
    const Tensor w = Tensor::randn(Shape{cout, g.patch_size()}, rng);

    util::Workspace& ws = util::Workspace::local();
    util::Workspace::Scope scope(ws);
    std::vector<float> full(static_cast<std::size_t>(batch * ohw * cout));
    conv_events(g, x.data(), batch, w.data(), cout, full.data(), ws);

    std::vector<float> one(static_cast<std::size_t>(ohw * cout));
    for (std::int64_t i = 0; i < batch; ++i) {
      conv_events(g, x.data() + i * chw, 1, w.data(), cout, one.data(), ws);
      EXPECT_EQ(std::memcmp(one.data(), full.data() + i * ohw * cout,
                            one.size() * sizeof(float)),
                0)
          << "geometry " << which << " sample " << i
          << " differs between batched and single calls";
    }
  }
}

TEST(Conv2dEvents, ForwardMatchesDenseKernel) {
  // The same layer weights through the dense im2col+GEMM path and the event
  // scatter path must agree (association tolerance only).
  const nn::Conv2dSpec spec{/*in_channels=*/2, /*out_channels=*/5,
                            /*kernel=*/5, /*stride=*/1, /*padding=*/2};
  util::Rng rng_a(23), rng_b(23), rng_x(29);
  nn::Conv2d dense(spec, rng_a);
  nn::Conv2d events(spec, rng_b);  // same seed -> identical weights
  events.set_input_hint(tensor::SparsityHint::kEvents);

  const Tensor x = spike_operand(Shape{4, 2, 14, 14}, 0.15, rng_x);
  const Tensor yd = dense.forward(x, nn::Mode::kEval);
  const Tensor ye = events.forward(x, nn::Mode::kEval);
  ASSERT_EQ(yd.shape(), ye.shape());
  for (std::int64_t i = 0; i < yd.numel(); ++i)
    ASSERT_NEAR(yd[i], ye[i], 1e-4f) << "flat index " << i;
}

TEST(Conv2dEvents, BatchedVsSingleBitIdentical) {
  const nn::Conv2dSpec spec{2, 3, 3, 1, 1};
  util::Rng rng(31);
  nn::Conv2d conv(spec, rng);
  conv.set_input_hint(tensor::SparsityHint::kEvents);
  const std::int64_t n = 4, chw = 2 * 10 * 10;
  const Tensor x = spike_operand(Shape{n, 2, 10, 10}, 0.2, rng);
  const Tensor yf = conv.forward(x, nn::Mode::kEval);
  const std::int64_t per = yf.numel() / n;
  Tensor xi(Shape{1, 2, 10, 10});
  for (std::int64_t i = 0; i < n; ++i) {
    std::memcpy(xi.data(), x.data() + i * chw,
                static_cast<std::size_t>(chw) * sizeof(float));
    const Tensor yi = conv.forward(xi, nn::Mode::kEval);
    ASSERT_EQ(yi.numel(), per);
    EXPECT_EQ(std::memcmp(yi.data(), yf.data() + i * per,
                          static_cast<std::size_t>(per) * sizeof(float)),
              0)
        << "sample " << i;
  }
}

TEST(Conv2dEvents, SteadyStateIsAllocationFree) {
  // After warm-up (workspace arenas grown, output tensor shaped), repeated
  // event-path forwards must not touch the heap. Counting operator-new hook
  // at the top of this file. The shape puts the scanline build, the scatter
  // and the bias reorder all at or above the fan-out threshold, so on a
  // multi-thread pool the gate covers the parallel path.
  const nn::Conv2dSpec spec{3, 8, 5, 1, 2};
  util::Rng rng(37);
  nn::Conv2d conv(spec, rng);
  conv.set_input_hint(tensor::SparsityHint::kEvents);
  const Tensor x = spike_operand(Shape{8, 3, 64, 64}, 0.2, rng);
  Tensor y;
  for (int i = 0; i < 3; ++i) conv.forward_into(x, y, nn::Mode::kEval);
  const std::int64_t tasks = pool_tasks();
  const std::int64_t before = g_allocs.load();
  for (int i = 0; i < 5; ++i) conv.forward_into(x, y, nn::Mode::kEval);
  EXPECT_EQ(g_allocs.load() - before, 0)
      << "event conv forward allocated on the steady state";
  if (fan_out_observable()) {  // 3 fan-outs a call, >= 2 tasks each
    EXPECT_GE(pool_tasks() - tasks, 5 * 3 * 2);
  }
}

TEST(Conv2dEvents, PackedForwardMatchesForwardInto) {
  // The weight-stationary entry point runs the same scatter kernel on the
  // same W^T values as the per-call pack, so the outputs match to the bit.
  util::Rng rng(43);
  nn::Conv2d conv(nn::Conv2dSpec{3, 6, 3, 1, 1}, rng);
  conv.set_input_hint(tensor::SparsityHint::kEvents);
  const Tensor x = spike_operand(Shape{3, 3, 9, 9}, 0.25, rng);
  Tensor packed, y_packed, y;
  conv.pack_weight(packed);
  conv.forward_into_packed(x, packed, y_packed);
  conv.forward_into(x, y, nn::Mode::kEval);
  ASSERT_EQ(y.numel(), y_packed.numel());
  EXPECT_EQ(std::memcmp(y.data(), y_packed.data(),
                        static_cast<std::size_t>(y.numel()) * sizeof(float)),
            0);
}

TEST(LinearEvents, PackedForwardMatchesForwardInto) {
  util::Rng rng(47);
  nn::Linear fc(96, 24, rng);
  fc.set_input_hint(tensor::SparsityHint::kEvents);
  const Tensor x = spike_operand(Shape{5, 96}, 0.15, rng);
  Tensor packed, y_packed, y;
  fc.pack_weight(packed);
  {
    util::Workspace& ws = util::Workspace::local();
    util::Workspace::Scope scope(ws);
    const EventRows ev = build_event_rows(x.data(), 96, 5, 96, ws);
    fc.forward_into_events(ev, packed, y_packed);
  }
  fc.forward_into(x, y);
  ASSERT_EQ(y.numel(), y_packed.numel());
  EXPECT_EQ(std::memcmp(y.data(), y_packed.data(),
                        static_cast<std::size_t>(y.numel()) * sizeof(float)),
            0);
}

TEST(LinearEvents, SteadyStateIsAllocationFree) {
  // Both the event-list build (64 x 1024) and the event GEMM reach the
  // fan-out threshold.
  util::Rng rng(41);
  nn::Linear fc(1024, 64, rng);
  fc.set_input_hint(tensor::SparsityHint::kEvents);
  const Tensor x = spike_operand(Shape{64, 1024}, 0.1, rng);
  Tensor y;
  for (int i = 0; i < 3; ++i) fc.forward_into(x, y);
  const std::int64_t tasks = pool_tasks();
  const std::int64_t before = g_allocs.load();
  for (int i = 0; i < 5; ++i) fc.forward_into(x, y);
  EXPECT_EQ(g_allocs.load() - before, 0)
      << "event linear forward allocated on the steady state";
  if (fan_out_observable()) {  // 2 fan-outs a call, >= 2 tasks each
    EXPECT_GE(pool_tasks() - tasks, 5 * 2 * 2);
  }
}

TEST(AnytimeRunnerEvents, RepeatedBatchesAreAllocationFree) {
  // The serving loop at a fixed batch size: begin() repacks every
  // event-kernel weight (conv1-3, fc1-2) into its warm buffer and each
  // step() runs the event conv and linear kernels on them. Once warm, whole
  // batches must not touch the heap. The low threshold and weight gain make
  // every spiking layer fire within the window; batch 8 on 16x16 inputs
  // puts the conv scatters past the fan-out threshold.
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.5);
  arch.image_size = 16;
  snn::SnnConfig cfg;
  cfg.v_th = 0.25;
  cfg.weight_gain = 6.0;
  cfg.time_steps = 12;
  cfg.input_gain = 3.0;
  util::Rng rng(43);
  auto model = snn::build_spiking_lenet(arch, cfg, rng);
  const Tensor x = Tensor::rand_uniform(Shape{8, 1, 16, 16}, rng);
  snn::AnytimeRunner runner(*model);
  for (int i = 0; i < 2; ++i) runner.run(x);
  const std::int64_t tasks = pool_tasks();
  const std::int64_t before = g_allocs.load();
  for (int i = 0; i < 3; ++i) {
    runner.begin(x);
    while (!runner.done()) runner.step();
  }
  EXPECT_EQ(g_allocs.load() - before, 0)
      << "begin() + T x step() allocated on the steady state";
  if (fan_out_observable()) {
    EXPECT_GT(pool_tasks() - tasks, 0);
  }
}

TEST(AnytimeRunnerEvents, Batch1StepPostsNoPoolTasks) {
  // No stage of a batch-1 serving step reaches the fan-out threshold, so a
  // warm request runs wholly on its calling thread: a multi-thread pool must
  // not cost each stage a wake and a join. ctest runs this on a 4-thread
  // pool (test_tensor_events_b1_threads4).
  if (!obs::Registry::enabled()) GTEST_SKIP() << "metrics off: no pool.tasks";
  snn::SnnConfig cfg;
  cfg.time_steps = 8;
  util::Rng rng(53);
  auto model = snn::build_spiking_lenet(nn::LenetSpec{}, cfg, rng);
  const Tensor x = Tensor::rand_uniform(Shape{1, 1, 28, 28}, rng);
  snn::AnytimeRunner runner(*model);
  runner.run(x);
  const std::int64_t tasks = pool_tasks();
  runner.begin(x);
  while (!runner.done()) runner.step();
  EXPECT_EQ(pool_tasks() - tasks, 0)
      << "a warm batch-1 begin() + T x step() fanned out to the pool";
}

}  // namespace
}  // namespace snnsec::tensor
