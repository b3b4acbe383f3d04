#include "oracle/gemm_reference.hpp"

#include <algorithm>
#include <vector>

namespace snnsec::tensor {

void gemm_reference(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
                    const Tensor& b, float beta, Tensor& c) {
  SNNSEC_CHECK(a.ndim() == 2 && b.ndim() == 2,
               "gemm_reference expects rank-2 operands, got "
                   << a.shape().to_string() << " and "
                   << b.shape().to_string());
  const std::int64_t m = (trans_a == Trans::kNo) ? a.dim(0) : a.dim(1);
  const std::int64_t k = (trans_a == Trans::kNo) ? a.dim(1) : a.dim(0);
  const std::int64_t bk = (trans_b == Trans::kNo) ? b.dim(0) : b.dim(1);
  const std::int64_t n = (trans_b == Trans::kNo) ? b.dim(1) : b.dim(0);
  SNNSEC_CHECK(k == bk, "gemm_reference inner-dimension mismatch: "
                            << a.shape().to_string() << " x "
                            << b.shape().to_string());
  SNNSEC_CHECK(c.ndim() == 2 && c.dim(0) == m && c.dim(1) == n,
               "gemm_reference output shape " << c.shape().to_string()
                                              << " != [" << m << ", " << n
                                              << "]");
  // Seed implementation, serial, per-call scratch — kept bit-exact on
  // purpose; see the header note.
  std::vector<float> bp(static_cast<std::size_t>(k * n));
  {
    const float* pb = b.data();
    if (trans_b == Trans::kNo) {
      std::copy(pb, pb + k * n, bp.begin());
    } else {
      const std::int64_t ldb = b.dim(1);
      for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t kk = 0; kk < k; ++kk)
          bp[static_cast<std::size_t>(kk * n + j)] = pb[j * ldb + kk];
    }
  }
  const float* pb = bp.data();
  const float* pa = a.data();
  float* pc = c.data();
  const std::int64_t lda = a.dim(1);
  std::vector<float> acc(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av =
          (trans_a == Trans::kNo) ? pa[i * lda + kk] : pa[kk * lda + i];
      // NOLINTNEXTLINE(snnsec-float-eq): spike operands are exactly 0 or 1; the sparsity skip must only drop true zeros
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j)
        acc[static_cast<std::size_t>(j)] += av * brow[j];
    }
    float* crow = pc + i * n;
    // NOLINTNEXTLINE(snnsec-float-eq): beta exactly 0 selects the overwrite path; near-zero must still scale C
    if (beta == 0.0f) {
      for (std::int64_t j = 0; j < n; ++j)
        crow[j] = alpha * acc[static_cast<std::size_t>(j)];
    } else {
      for (std::int64_t j = 0; j < n; ++j)
        crow[j] = beta * crow[j] + alpha * acc[static_cast<std::size_t>(j)];
    }
  }
}

}  // namespace snnsec::tensor
