// SNNSEC_HOT — steady-state kernel file: naked heap allocation and
// container growth are forbidden here (snnsec_lint snnsec-hot-alloc);
// scratch memory comes from util::Workspace so warmed-up runs are
// zero-alloc (asserted by bench_runner's operator-new hook).
#include "tensor/gemm.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace snnsec::tensor {

namespace {

struct Dims {
  std::int64_t m = 0, n = 0, k = 0;
};

Dims check_dims(Trans trans_a, Trans trans_b, const Tensor& a,
                const Tensor& b) {
  SNNSEC_CHECK(a.ndim() == 2 && b.ndim() == 2,
               "gemm expects rank-2 operands, got " << a.shape().to_string()
                                                    << " and "
                                                    << b.shape().to_string());
  Dims d;
  const std::int64_t a_rows = a.dim(0), a_cols = a.dim(1);
  const std::int64_t b_rows = b.dim(0), b_cols = b.dim(1);
  d.m = (trans_a == Trans::kNo) ? a_rows : a_cols;
  d.k = (trans_a == Trans::kNo) ? a_cols : a_rows;
  const std::int64_t bk = (trans_b == Trans::kNo) ? b_rows : b_cols;
  d.n = (trans_b == Trans::kNo) ? b_cols : b_rows;
  SNNSEC_CHECK(d.k == bk, "gemm inner-dimension mismatch: "
                              << a.shape().to_string() << " x "
                              << b.shape().to_string());
  return d;
}

inline float load_a(Trans ta, const float* a, std::int64_t lda, std::int64_t i,
                    std::int64_t p) {
  return (ta == Trans::kNo) ? a[i * lda + p] : a[p * lda + i];
}

inline float load_b(Trans tb, const float* b, std::int64_t ldb, std::int64_t p,
                    std::int64_t j) {
  return (tb == Trans::kNo) ? b[p * ldb + j] : b[j * ldb + p];
}

// ---- blocked dense kernel --------------------------------------------------
//
// BLIS-style three-level blocking: C is computed in MC x NC tiles, each as a
// sum over KC slabs. Within a tile the work is an array of MR x NR register
// microkernels reading zero-padded pack buffers, so the innermost loops have
// no branches and fixed trip counts the compiler unrolls and vectorizes.
//
// MR*NR accumulators (4x8 = 8 SSE vectors) plus one B row and one A
// broadcast fit the x86-64 baseline register file without spilling.
constexpr std::int64_t kMR = 4;
constexpr std::int64_t kNR = 8;
constexpr std::int64_t kMC = 128;  // A block rows   (multiple of MR)
constexpr std::int64_t kKC = 256;  // shared K slab
constexpr std::int64_t kNC = 512;  // B block cols   (multiple of NR)

inline std::int64_t round_up(std::int64_t v, std::int64_t to) {
  return (v + to - 1) / to * to;
}

/// Pack op(A)[i0:i0+mb, p0:p0+kb] into MR-row panels, ap[panel][kk][r],
/// zero-padding the ragged last panel so microkernels never branch on m.
void pack_a_block(Trans ta, const float* a, std::int64_t lda, std::int64_t i0,
                  std::int64_t mb, std::int64_t p0, std::int64_t kb,
                  float* ap) {
  const std::int64_t panels = (mb + kMR - 1) / kMR;
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    float* dst = ap + ip * kb * kMR;
    const std::int64_t rows = std::min(kMR, mb - ip * kMR);
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      for (std::int64_t r = 0; r < rows; ++r)
        dst[kk * kMR + r] = load_a(ta, a, lda, i0 + ip * kMR + r, p0 + kk);
      for (std::int64_t r = rows; r < kMR; ++r) dst[kk * kMR + r] = 0.0f;
    }
  }
}

/// Pack op(B)[p0:p0+kb, j0:j0+nb] into NR-column panels, bp[panel][kk][c],
/// zero-padded to a multiple of NR columns.
void pack_b_block(Trans tb, const float* b, std::int64_t ldb, std::int64_t p0,
                  std::int64_t kb, std::int64_t j0, std::int64_t nb,
                  float* bp) {
  const std::int64_t panels = (nb + kNR - 1) / kNR;
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    float* dst = bp + jp * kb * kNR;
    const std::int64_t cols = std::min(kNR, nb - jp * kNR);
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      for (std::int64_t c = 0; c < cols; ++c)
        dst[kk * kNR + c] = load_b(tb, b, ldb, p0 + kk, j0 + jp * kNR + c);
      for (std::int64_t c = cols; c < kNR; ++c) dst[kk * kNR + c] = 0.0f;
    }
  }
}

/// MR x NR register tile over a kb-long packed panel pair. The fixed trip
/// counts let the compiler keep all MR*NR accumulators in registers and emit
/// wide FMAs for the c loop.
inline void micro_kernel(std::int64_t kb, const float* ap, const float* bp,
                         float* acc) {
  float t[kMR * kNR] = {};
  for (std::int64_t kk = 0; kk < kb; ++kk) {
    const float* arow = ap + kk * kMR;
    const float* brow = bp + kk * kNR;
    for (std::int64_t r = 0; r < kMR; ++r) {
      const float av = arow[r];
      for (std::int64_t c = 0; c < kNR; ++c) t[r * kNR + c] += av * brow[c];
    }
  }
  for (std::int64_t i = 0; i < kMR * kNR; ++i) acc[i] = t[i];
}

/// Write the valid rows x cols corner of an accumulator tile into C with the
/// alpha/beta contract. beta_eff is 0 on the first K slab (overwrite,
/// ignoring whatever garbage C held), 1 on subsequent slabs (accumulate).
inline void store_tile(float* c, std::int64_t ldc, const float* acc,
                       std::int64_t rows, std::int64_t cols, float alpha,
                       float beta_eff) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc + r * kNR;
    // NOLINTNEXTLINE(snnsec-float-eq): beta 0/1 select the exact overwrite/accumulate fast paths; near-zero must still scale
    if (beta_eff == 0.0f) {
      for (std::int64_t j = 0; j < cols; ++j) crow[j] = alpha * arow[j];
    // NOLINTNEXTLINE(snnsec-float-eq): beta exactly 1 selects the pure-accumulate fast path
    } else if (beta_eff == 1.0f) {
      for (std::int64_t j = 0; j < cols; ++j) crow[j] += alpha * arow[j];
    } else {
      for (std::int64_t j = 0; j < cols; ++j)
        crow[j] = beta_eff * crow[j] + alpha * arow[j];
    }
  }
}

/// All register-tile work for one packed (A block, B block) pair: the
/// jp x ip sweep of MR x NR microkernels plus the C stores.
SNNSEC_KERNEL_CLONES
void dense_tiles(std::int64_t kb, std::int64_t mb, std::int64_t nb,
                 std::int64_t nb_pad, const float* ap, const float* bp,
                 float* c, std::int64_t ldc, float alpha, float beta_eff) {
  const std::int64_t jps = nb_pad / kNR;
  const std::int64_t ips = (mb + kMR - 1) / kMR;
  for (std::int64_t jp = 0; jp < jps; ++jp) {
    for (std::int64_t ip = 0; ip < ips; ++ip) {
      float acc[kMR * kNR];
      micro_kernel(kb, ap + ip * kb * kMR, bp + jp * kb * kNR, acc);
      store_tile(c + ip * kMR * ldc + jp * kNR, ldc, acc,
                 std::min(kMR, mb - ip * kMR), std::min(kNR, nb - jp * kNR),
                 alpha, beta_eff);
    }
  }
}

void gemm_dense(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const float* a, std::int64_t lda,
                const float* b, std::int64_t ldb, float beta, float* c,
                std::int64_t ldc) {
  util::Workspace& ws = util::Workspace::local();
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nb = std::min(kNC, n - jc);
    const std::int64_t nb_pad = round_up(nb, kNR);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kb = std::min(kKC, k - pc);
      const float beta_eff = (pc == 0) ? beta : 1.0f;
      util::Workspace::Scope pack_scope(ws);
      float* bp = ws.alloc<float>(static_cast<std::size_t>(kb * nb_pad));
      pack_b_block(tb, b, ldb, pc, kb, jc, nb, bp);

      const std::int64_t ic_blocks = (m + kMC - 1) / kMC;
      auto run_blocks = [&](std::int64_t blo, std::int64_t bhi) {
        // Workers pack A into their own thread's arena; bp is read-only
        // shared state owned by the caller's scope.
        util::Workspace& tws = util::Workspace::local();
        util::Workspace::Scope tile_scope(tws);
        float* ap = tws.alloc<float>(static_cast<std::size_t>(kb * kMC));
        for (std::int64_t bi = blo; bi < bhi; ++bi) {
          const std::int64_t ic = bi * kMC;
          const std::int64_t mb = std::min(kMC, m - ic);
          pack_a_block(ta, a, lda, ic, mb, pc, kb, ap);
          dense_tiles(kb, mb, nb, nb_pad, ap, bp, c + ic * ldc + jc, ldc,
                      alpha, beta_eff);
        }
      };
      util::parallel_for_chunked(0, ic_blocks, m * nb * kb, run_blocks);
    }
  }
}

}  // namespace

void gemm_raw(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
              std::int64_t k, float alpha, const float* a, std::int64_t lda,
              const float* b, std::int64_t ldb, float beta, float* c,
              std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  SNNSEC_COUNTER_ADD("tensor.gemm.calls", 1);
  SNNSEC_COUNTER_ADD("tensor.gemm.flops", 2 * m * n * k);
  gemm_dense(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

// SNNSEC_HOT entry: every conv/fc lowers onto this call.
void gemm(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c) {
  SNNSEC_TRACE_SCOPE("gemm");
  const Dims d = check_dims(trans_a, trans_b, a, b);
  SNNSEC_CHECK(c.ndim() == 2 && c.dim(0) == d.m && c.dim(1) == d.n,
               "gemm output shape " << c.shape().to_string() << " != ["
                                    << d.m << ", " << d.n << "]");
  gemm_raw(trans_a, trans_b, d.m, d.n, d.k, alpha, a.data(), a.dim(1),
           b.data(), b.dim(1), beta, c.data(), d.n);
}

Tensor matmul(const Tensor& a, const Tensor& b, Trans trans_a,
              Trans trans_b) {
  const Dims d = check_dims(trans_a, trans_b, a, b);
  Tensor c(Shape{d.m, d.n});
  gemm(trans_a, trans_b, 1.0f, a, b, 0.0f, c);
  return c;
}

}  // namespace snnsec::tensor
