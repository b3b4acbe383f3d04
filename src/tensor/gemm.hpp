// Single-precision GEMM: the workhorse behind Linear and (via im2col)
// Conv2d, forward and backward.
//
// C = alpha * op(A) * op(B) + beta * C, with op in {identity, transpose}.
//
// The entry points below run one kernel: a cache-blocked (MC/KC/NC),
// register-tiled (MR x NR) dense kernel whose inner loop is branch-free and
// written to auto-vectorize. Spike operands take the event-driven path
// instead — compressed to per-row index lists and consumed by gemm_events
// (spike_events.hpp). Which of the two a layer runs is its SparsityHint,
// declared from the operand's ROLE (weights are dense, spike slabs are
// events), never probed from its data: data-dependent dispatch could flip
// the summation order between batched and single execution of the same
// layer, breaking the serve/detection bit-identity contracts (DESIGN.md
// §14). Layers resolve their kernel once and keep it for life.
//
// All scratch (pack buffers, accumulators) comes from the per-thread
// util::Workspace arena: steady-state calls perform zero heap allocations.
// The seed scalar kernel survives verbatim as gemm_reference() in the
// tests-only oracle library (tests/oracle), the numerics baseline the
// property tests and bench_runner compare against.
//
// Parallelized over row blocks of C through util::parallel_for_chunked; with
// SNNSEC_THREADS=1 every path is fully deterministic.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace snnsec::tensor {

enum class Trans { kNo, kYes };

/// How a layer (Linear, Conv2d, AnytimeRunner) declares its input operand
/// to be populated. Resolved from the operand's role (layer kind +
/// position), sticky for the layer's lifetime — see the header comment for
/// why probing is forbidden.
///  kDense  — lower onto gemm / gemm_raw below (the blocked kernel).
///  kEvents — compress the operand to event lists and run gemm_events
///            (spike_events.hpp).
enum class SparsityHint { kDense, kEvents };

/// General matrix multiply into an existing, correctly-sized C.
/// Shapes (logical, after op): A is [M,K], B is [K,N], C is [M,N].
void gemm(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c);

/// Convenience: returns op(A)*op(B) as a fresh [M,N] tensor.
Tensor matmul(const Tensor& a, const Tensor& b, Trans trans_a = Trans::kNo,
              Trans trans_b = Trans::kNo);

/// Raw-pointer core for callers that manage their own buffers (the conv
/// hot path runs GEMM straight on workspace memory). Strides are row-major
/// leading dimensions of the *stored* matrices: op(A)[i,p] lives at
/// a[i*lda + p] (kNo) or a[p*lda + i] (kYes), likewise for B; C is always
/// untransposed with stride ldc.
void gemm_raw(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
              std::int64_t k, float alpha, const float* a, std::int64_t lda,
              const float* b, std::int64_t ldb, float beta, float* c,
              std::int64_t ldc);

}  // namespace snnsec::tensor
