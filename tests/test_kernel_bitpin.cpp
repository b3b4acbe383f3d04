// Bit pins for the serving step's per-element kernels: lif_step, alif_step,
// li_step, the conv event scatter (conv_events) and AvgPool2d::forward_into.
//
// Each test drives one kernel with seeded inputs and folds every output bit
// into a 64-bit FNV-1a digest, compared against a digest recorded from the
// scalar (pre-vectorization) kernels. Vectorizing a kernel may reorder loads
// and stores but must not move a single output bit: a different FMA
// contraction, summation order or spike select shows up here as a digest
// change, long before it shows up as a drifted accuracy.
//
// The digests pin the x86-64-v3 kernel versions (util/simd.hpp), which the
// dispatcher picks on AVX2+FMA hosts; elsewhere the generic versions run,
// whose unfused arithmetic gives other (equally deterministic) bits, so the
// tests skip there.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "nn/pooling.hpp"
#include "snn/alif_layer.hpp"
#include "snn/lif.hpp"
#include "tensor/spike_events.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

namespace snnsec {
namespace {

using tensor::ConvGeometry;
using tensor::Shape;
using tensor::Tensor;

bool host_runs_v3_kernels() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#define SKIP_UNLESS_V3_HOST()                                          \
  if (!host_runs_v3_kernels())                                         \
  GTEST_SKIP() << "digests pin the x86-64-v3 kernels; this host runs " \
                  "the generic versions"

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const float* p, std::int64_t n) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p);
    const std::size_t len = static_cast<std::size_t>(n) * sizeof(float);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  }
  void add(const std::vector<float>& v) {
    add(v.data(), static_cast<std::int64_t>(v.size()));
  }
};

/// Seeded per-step input currents: a normal draw around `mean`, so some
/// neurons stay silent, some fire now and then and some fire every step.
std::vector<float> currents(util::Rng& rng, std::int64_t n, float mean) {
  std::vector<float> x(static_cast<std::size_t>(n));
  rng.fill_normal(x.data(), x.size(), mean, 1.5f);
  return x;
}

/// An odd population size, so every vector loop also runs its remainder.
constexpr std::int64_t kNeurons = 1003;
constexpr int kSteps = 24;

std::uint64_t lif_digest(const snn::LifParameters& p, std::uint64_t seed,
                         double* rate) {
  util::Rng rng(seed);
  std::vector<float> si(kNeurons, 0.0f), sv(kNeurons, 0.0f);
  std::vector<float> z(kNeurons), vd(kNeurons);
  Digest d;
  double spikes = 0.0;
  for (int t = 0; t < kSteps; ++t) {
    const std::vector<float> x = currents(rng, kNeurons, 0.4f);
    snn::lif_step(p, kNeurons, x.data(), si.data(), sv.data(), z.data(),
                  vd.data());
    d.add(z);
    d.add(vd);
    d.add(si);
    d.add(sv);
    for (float s : z) spikes += s;
  }
  *rate = spikes / (kNeurons * kSteps);
  return d.h;
}

std::uint64_t alif_digest(const snn::AlifParameters& p, std::uint64_t seed,
                          double* rate) {
  util::Rng rng(seed);
  std::vector<float> si(kNeurons, 0.0f), sv(kNeurons, 0.0f),
      sb(kNeurons, 0.0f);
  std::vector<float> z(kNeurons), vd(kNeurons), b0(kNeurons);
  Digest d;
  double spikes = 0.0;
  for (int t = 0; t < kSteps; ++t) {
    const std::vector<float> x = currents(rng, kNeurons, 0.4f);
    snn::alif_step(p, kNeurons, x.data(), si.data(), sv.data(), sb.data(),
                   z.data(), vd.data(), b0.data());
    d.add(z);
    d.add(vd);
    d.add(b0);
    d.add(si);
    d.add(sv);
    d.add(sb);
    for (float s : z) spikes += s;
  }
  *rate = spikes / (kNeurons * kSteps);
  return d.h;
}

snn::LifParameters offset_lif() {
  snn::LifParameters p;
  p.tau_syn_inv = 150.0f;
  p.tau_mem_inv = 120.0f;
  p.v_th = 0.4f;
  p.v_leak = -0.1f;
  p.v_reset = -0.2f;
  return p;
}

TEST(KernelBitPin, LifStep) {
  SKIP_UNLESS_V3_HOST();
  double rate = 0.0;
  EXPECT_EQ(lif_digest(snn::LifParameters{}, 101, &rate),
            0xd1d96e2cccadb501ULL);
  EXPECT_GT(rate, 0.02);
  EXPECT_LT(rate, 0.9);
  EXPECT_EQ(lif_digest(offset_lif(), 102, &rate), 0xc502217643c36f6cULL);
  EXPECT_GT(rate, 0.02);
  EXPECT_LT(rate, 0.9);
}

TEST(KernelBitPin, AlifStep) {
  SKIP_UNLESS_V3_HOST();
  double rate = 0.0;
  snn::AlifParameters p;
  p.lif.v_th = 0.6f;
  EXPECT_EQ(alif_digest(p, 103, &rate), 0xe4e946bcf3094494ULL);
  EXPECT_GT(rate, 0.02);
  EXPECT_LT(rate, 0.9);
  snn::AlifParameters q;
  q.lif = offset_lif();
  q.beta = 1.7f;
  q.rho = 0.75f;
  EXPECT_EQ(alif_digest(q, 104, &rate), 0xd8640e1a80aa6179ULL);
  EXPECT_GT(rate, 0.02);
  EXPECT_LT(rate, 0.9);
}

TEST(KernelBitPin, LiStep) {
  SKIP_UNLESS_V3_HOST();
  for (const auto& [p, seed, want] :
       {std::tuple{snn::LifParameters{}, std::uint64_t{105}, 0xb6d545de22ad26bbULL},
        std::tuple{offset_lif(), std::uint64_t{106}, 0xc2bbbabbe221b2f2ULL}}) {
    util::Rng rng(seed);
    std::vector<float> si(kNeurons, 0.0f), sv(kNeurons, 0.0f), v(kNeurons);
    Digest d;
    for (int t = 0; t < kSteps; ++t) {
      const std::vector<float> x = currents(rng, kNeurons, 0.4f);
      snn::li_step(p, kNeurons, x.data(), si.data(), sv.data(), v.data());
      d.add(v);
      d.add(si);
    }
    EXPECT_EQ(d.h, want) << "seed " << seed;
  }
}

struct ConvCase {
  std::int64_t channels, height, width, kernel_h, kernel_w, pad_h, pad_w,
      stride, batch, cout;
  bool graded;  ///< pooled-map values {0.25 .. 1} instead of binary spikes
  std::uint64_t want;
};

std::uint64_t conv_digest(const ConvCase& c, std::uint64_t seed) {
  ConvGeometry g;
  g.channels = c.channels;
  g.height = c.height;
  g.width = c.width;
  g.kernel_h = c.kernel_h;
  g.kernel_w = c.kernel_w;
  g.pad_h = c.pad_h;
  g.pad_w = c.pad_w;
  g.stride_h = g.stride_w = c.stride;
  g.validate();
  util::Rng rng(seed);
  Tensor x = Tensor::bernoulli(Shape{c.batch, c.channels, c.height, c.width},
                               rng, 0.25);
  if (c.graded) {
    float* px = x.data();
    for (std::int64_t i = 0; i < x.numel(); ++i)
      px[i] *= 0.25f * static_cast<float>(1 + rng.uniform_int(0, 3));
  }
  const Tensor w = Tensor::randn(Shape{c.cout, g.patch_size()}, rng);
  std::vector<float> ct(
      static_cast<std::size_t>(c.batch * g.out_h() * g.out_w() * c.cout));
  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  tensor::conv_events(g, x.data(), c.batch, w.data(), c.cout, ct.data(), ws);
  Digest d;
  d.add(ct);
  return d.h;
}

TEST(KernelBitPin, ConvEventScatter) {
  SKIP_UNLESS_V3_HOST();
  const ConvCase cases[] = {
      // conv1-like: unpadded 5x5 over encoder spikes.
      {1, 16, 16, 5, 5, 0, 0, 1, 3, 8, false, 0x00a48d895895e6e7ULL},
      // conv2-like: padded 5x5 over pooled rate maps.
      {6, 14, 14, 5, 5, 2, 2, 1, 2, 16, true, 0x33a5136c45ec6a0bULL},
      // 3x3 pad 1, small Cout.
      {2, 12, 10, 3, 3, 1, 1, 1, 2, 3, false, 0x1b0d46bb2191c852ULL},
      // stride 2.
      {3, 11, 9, 3, 3, 1, 1, 2, 2, 8, true, 0x63647d6fd8a79d7eULL},
      // rectangular kernel.
      {2, 9, 13, 3, 5, 1, 2, 1, 1, 5, false, 0xd6a6814f1e485624ULL},
  };
  std::uint64_t seed = 201;
  for (const ConvCase& c : cases)
    EXPECT_EQ(conv_digest(c, seed++), c.want) << "case seed " << seed - 1;
}

TEST(KernelBitPin, AvgPoolForwardInto) {
  SKIP_UNLESS_V3_HOST();
  struct PoolCase {
    std::int64_t n, c, h, w, kernel, stride;
    std::uint64_t want;
  };
  const PoolCase cases[] = {
      {2, 3, 14, 14, 2, 2, 0xf48eae50cbd2b46dULL},
      {1, 4, 9, 9, 3, 2, 0x5c9baf9f0fb3dc0aULL},
      {2, 2, 8, 7, 2, 1, 0x7dd36721e65501f0ULL},
  };
  std::uint64_t seed = 301;
  for (const PoolCase& pc : cases) {
    util::Rng rng(seed++);
    const Tensor x = Tensor::randn(Shape{pc.n, pc.c, pc.h, pc.w}, rng);
    const nn::AvgPool2d pool(pc.kernel, pc.stride);
    Tensor y;
    pool.forward_into(x, y);
    Digest d;
    d.add(y.data(), y.numel());
    EXPECT_EQ(d.h, pc.want) << "case seed " << seed - 1;
  }
}

}  // namespace
}  // namespace snnsec
