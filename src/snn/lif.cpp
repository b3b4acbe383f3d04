// SNNSEC_HOT — steady-state kernel file: naked heap allocation and
// container growth are forbidden here (snnsec_lint snnsec-hot-alloc);
// scratch memory comes from util::Workspace so warmed-up runs are
// zero-alloc (asserted by bench_runner's operator-new hook).
#include "snn/lif.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace snnsec::snn {

void LifParameters::validate() const {
  SNNSEC_CHECK(dt > 0.0f, "LifParameters: dt must be positive");
  const float fa = a();
  const float fb = b();
  SNNSEC_CHECK(fa > 0.0f && fa <= 1.0f,
               "LifParameters: unstable membrane factor a=" << fa
                   << " (need 0 < dt*tau_mem_inv <= 1)");
  SNNSEC_CHECK(fb >= 0.0f && fb < 1.0f,
               "LifParameters: unstable synapse factor b=" << fb
                   << " (need 0 <= 1 - dt*tau_syn_inv < 1)");
  SNNSEC_CHECK(v_th > v_leak,
               "LifParameters: v_th (" << v_th << ") must exceed v_leak ("
                                       << v_leak << ")");
}

std::string LifParameters::to_string() const {
  std::ostringstream oss;
  oss << "LIF(v_th=" << v_th << ", tau_syn_inv=" << tau_syn_inv
      << ", tau_mem_inv=" << tau_mem_inv << ", v_leak=" << v_leak
      << ", v_reset=" << v_reset << ", dt=" << dt << ")";
  return oss.str();
}

namespace {

// The per-element updates, written once and instantiated per kernel version
// (util/simd.hpp): kFused selects the v3 contraction contract, !kFused the
// generic version's two-rounding arithmetic. The spike is an integer select
// and the LifParameters fields are hoisted into locals, so the loops carry
// no control flow and no reloads through `p` — both versions vectorize.
// Both lif_step and li_step are the single source of truth for the
// dynamics: LifLayer's unrolled forward and AnytimeRunner's per-slab
// stepping call the same symbols, which is what keeps the two paths
// bit-identical per machine.
template <bool kFused>
[[gnu::always_inline]] inline void lif_update(
    const LifParameters& p, std::int64_t n, const float* __restrict x,
    float* __restrict state_i, float* __restrict state_v,
    float* __restrict z_out, float* __restrict v_decayed_out) {
  const float a = p.a();
  // p.b() under the contraction contract (fused in the v3 version).
  const float b = util::madd<kFused>(-p.dt, p.tau_syn_inv, 1.0f);
  const float v_th = p.v_th;
  const float v_leak = p.v_leak;
  const float v_reset = p.v_reset;
  for (std::int64_t k = 0; k < n; ++k) {
    const float v0 = state_v[k];
    const float i0 = state_i[k];
    const float vd = util::madd<kFused>(a, (v_leak - v0) + i0, v0);
    const float z = util::spike_select(vd > v_th);
    z_out[k] = z;
    v_decayed_out[k] = vd;
    state_v[k] = util::madd<kFused>(z, v_reset, (1.0f - z) * vd);
    state_i[k] = b * i0 + x[k];
  }
}

template <bool kFused>
[[gnu::always_inline]] inline void li_update(
    const LifParameters& p, std::int64_t n, const float* __restrict x,
    float* __restrict state_i, float* __restrict state_v,
    float* __restrict v_out) {
  const float a = p.a();
  const float b = util::madd<kFused>(-p.dt, p.tau_syn_inv, 1.0f);
  const float v_leak = p.v_leak;
  for (std::int64_t k = 0; k < n; ++k) {
    const float v0 = state_v[k];
    const float i0 = state_i[k];
    const float vd = util::madd<kFused>(a, (v_leak - v0) + i0, v0);
    v_out[k] = vd;
    state_v[k] = vd;
    state_i[k] = util::madd<kFused>(b, i0, x[k]);
  }
}

SNNSEC_TARGET_DEFAULT
void lif_kernel(const LifParameters& p, std::int64_t n, const float* x,
                float* state_i, float* state_v, float* z_out,
                float* v_decayed_out) {
  lif_update<false>(p, n, x, state_i, state_v, z_out, v_decayed_out);
}

SNNSEC_TARGET_DEFAULT
void li_kernel(const LifParameters& p, std::int64_t n, const float* x,
               float* state_i, float* state_v, float* v_out) {
  li_update<false>(p, n, x, state_i, state_v, v_out);
}

#if SNNSEC_HAVE_TARGET_V3
SNNSEC_TARGET_V3
void lif_kernel(const LifParameters& p, std::int64_t n, const float* x,
                float* state_i, float* state_v, float* z_out,
                float* v_decayed_out) {
  lif_update<true>(p, n, x, state_i, state_v, z_out, v_decayed_out);
}

SNNSEC_TARGET_V3
void li_kernel(const LifParameters& p, std::int64_t n, const float* x,
               float* state_i, float* state_v, float* v_out) {
  li_update<true>(p, n, x, state_i, state_v, v_out);
}
#endif

}  // namespace

// SNNSEC_HOT entry: the per-neuron membrane update kernel. The call to the
// multi-versioned lif_kernel is dispatched once at load time.
void lif_step(const LifParameters& p, std::int64_t n, const float* x,
              float* state_i, float* state_v, float* z_out,
              float* v_decayed_out) {
  lif_kernel(p, n, x, state_i, state_v, z_out, v_decayed_out);
}

void li_step(const LifParameters& p, std::int64_t n, const float* x,
             float* state_i, float* state_v, float* v_out) {
  li_kernel(p, n, x, state_i, state_v, v_out);
}

}  // namespace snnsec::snn
