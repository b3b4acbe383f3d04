// The seed scalar GEMM, frozen: the numerics oracle that the property tests
// pin the blocked kernel to, and the stable baseline bench_runner reports
// speedup against and CI's bench gate normalizes by.
#pragma once

#include "tensor/gemm.hpp"

namespace snnsec::tensor {

/// C = alpha * op(A) * op(B) + beta * C with the seed's serial row-panel
/// loop, per-element zero-skip and per-call heap scratch. Same shape
/// contract as gemm(); not for production use.
void gemm_reference(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
                    const Tensor& b, float beta, Tensor& c);

}  // namespace snnsec::tensor
