// Kernel multi-versioning for hot loops: SNNSEC_KERNEL_CLONES and the
// explicit SNNSEC_TARGET_V3 / SNNSEC_TARGET_DEFAULT pair.
//
// The baseline x86-64 ABI only guarantees SSE2, which caps vector kernels
// well below what the machines this actually runs on (CI and dev boxes are
// all AVX2+FMA capable) can do. Both devices compile a kernel twice —
// generic and x86-64-v3 — and pick at load time, so one binary serves both
// without a -march flag that would break older hosts. GCC-only: clang's
// target_clones doesn't accept arch= strings.
//
// SNNSEC_KERNEL_CLONES (target_clones) compiles ONE body twice and leaves
// FMA contraction to the compiler: the v3 clone may contract mul+add into
// FMA wherever GCC's pass finds it, the generic clone cannot. Fine for
// kernels whose output is only pinned per host (the event GEMM and conv
// scatter: `acc += v * w` contracts to one FMA in every v3 loop form).
//
// SNNSEC_TARGET_V3 / SNNSEC_TARGET_DEFAULT (function multi-versioning) are
// for kernels whose v3 bits must follow a written contraction contract,
// independent of how the loop happens to be compiled. The neuron kernels
// (snn/lif.cpp, snn/alif_layer.cpp) are built with -ffp-contract=off and
// spell every fused op as madd<true>(x, y, z) == fmaf(x, y, z) in the v3
// version and madd<false>(x, y, z) == x * y + z (two roundings, no libm
// call) in the generic one. The v3 contract — what the scalar v3 clones of
// these kernels computed before they were vectorized, kept bit for bit:
//
//   all:   b      = fma(-dt, tau_syn_inv, 1)           (LifParameters::b)
//          vd     = fma(a, (v_leak - v) + i, v)         (a = dt*tau_mem_inv)
//   LIF:   v'     = fma(z, v_reset, (1 - z) * vd)
//          i'     = b * i + x                           UNFUSED
//   ALIF:  theta  = fma(beta, b_adapt, v_th)
//          v'     = fma(z, v_reset, (1 - z) * vd)
//          i'     = b * i + x                           UNFUSED
//          b'     = fma(rho, b_adapt, (1 - rho) * z)
//   LI:    i'     = fma(b, i, x)
//
// The spike z is an integer select (spike_select below), so the loops carry
// no control flow and both versions vectorize. tests/test_kernel_bitpin.cpp
// pins the v3 digests.
//
// Determinism note: the v3 and generic versions may differ in the last ulp
// (FMA vs two roundings). The choice is fixed per machine at load time,
// never per call — every kernel built with these macros is deterministic
// for a given host, which is the contract the batched-vs-single and
// serial-vs-parallel bit-identity tests rely on.
#pragma once

#include <bit>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define SNNSEC_KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#define SNNSEC_HAVE_TARGET_V3 1
#define SNNSEC_TARGET_V3 __attribute__((target("arch=x86-64-v3")))
#define SNNSEC_TARGET_DEFAULT __attribute__((target("default")))
#else
#define SNNSEC_KERNEL_CLONES
#define SNNSEC_HAVE_TARGET_V3 0
#define SNNSEC_TARGET_V3
#define SNNSEC_TARGET_DEFAULT
#endif

namespace snnsec::util {

/// x * y + z: one rounding (FMA) when kFused, two otherwise. Only
/// meaningful in a translation unit built with -ffp-contract=off, where the
/// unfused form is not re-fused behind the caller's back.
template <bool kFused>
[[gnu::always_inline]] inline float madd(float x, float y, float z) {
  if constexpr (kFused)
    return __builtin_fmaf(x, y, z);
  else
    return x * y + z;
}

/// 1.0f when `fire`, else 0.0f, as an integer mask — no branch for the
/// vectorizer to trip over (a float ?: select under trapping math becomes
/// one).
[[gnu::always_inline]] inline float spike_select(bool fire) {
  return std::bit_cast<float>((0u - static_cast<std::uint32_t>(fire)) &
                              0x3f800000u);
}

}  // namespace snnsec::util
