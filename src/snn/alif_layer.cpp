// SNNSEC_HOT — steady-state kernel file: naked heap allocation and
// container growth are forbidden here (snnsec_lint snnsec-hot-alloc);
// scratch memory comes from util::Workspace so warmed-up runs are
// zero-alloc (asserted by bench_runner's operator-new hook).
#include "snn/alif_layer.hpp"

#include <algorithm>
#include <sstream>

#include "snn/lif_layer.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace snnsec::snn {

using tensor::Tensor;

void AlifParameters::validate() const {
  lif.validate();
  SNNSEC_CHECK(beta >= 0.0f, "AlifParameters: negative beta");
  SNNSEC_CHECK(rho >= 0.0f && rho < 1.0f,
               "AlifParameters: rho must be in [0, 1)");
}

namespace {

// The per-element update, instantiated per kernel version (util/simd.hpp
// states the v3 contraction contract). The spike is an integer select and
// every parameter is hoisted into a local, so both versions vectorize.
// Single source of truth for the ALIF dynamics: the unrolled forward below
// and AnytimeRunner's kAlif stage both call alif_step, which keeps the two
// paths bit-identical per machine.
template <bool kFused>
[[gnu::always_inline]] inline void alif_update(
    const AlifParameters& p, std::int64_t n, const float* __restrict x,
    float* __restrict state_i, float* __restrict state_v,
    float* __restrict state_b, float* __restrict z_out,
    float* __restrict v_decayed_out, float* __restrict b0_out) {
  const float a = p.lif.a();
  // p.lif.b() under the contraction contract (fused in the v3 version).
  const float bsyn = util::madd<kFused>(-p.lif.dt, p.lif.tau_syn_inv, 1.0f);
  const float v_th = p.lif.v_th;
  const float v_leak = p.lif.v_leak;
  const float v_reset = p.lif.v_reset;
  const float beta = p.beta;
  const float rho = p.rho;
  const float one_minus_rho = 1.0f - rho;
  for (std::int64_t k = 0; k < n; ++k) {
    const float v0 = state_v[k];
    const float i0 = state_i[k];
    const float b0 = state_b[k];
    const float v_decayed = util::madd<kFused>(a, (v_leak - v0) + i0, v0);
    const float theta = util::madd<kFused>(beta, b0, v_th);
    const float spike = util::spike_select(v_decayed > theta);
    v_decayed_out[k] = v_decayed;
    b0_out[k] = b0;  // pre-update adaptation (enters theta); BPTT input
    z_out[k] = spike;
    state_v[k] =
        util::madd<kFused>(spike, v_reset, (1.0f - spike) * v_decayed);
    state_i[k] = bsyn * i0 + x[k];
    state_b[k] = util::madd<kFused>(rho, b0, one_minus_rho * spike);
  }
}

SNNSEC_TARGET_DEFAULT
void alif_kernel(const AlifParameters& p, std::int64_t n, const float* x,
                 float* state_i, float* state_v, float* state_b, float* z_out,
                 float* v_decayed_out, float* b0_out) {
  alif_update<false>(p, n, x, state_i, state_v, state_b, z_out,
                     v_decayed_out, b0_out);
}

#if SNNSEC_HAVE_TARGET_V3
SNNSEC_TARGET_V3
void alif_kernel(const AlifParameters& p, std::int64_t n, const float* x,
                 float* state_i, float* state_v, float* state_b, float* z_out,
                 float* v_decayed_out, float* b0_out) {
  alif_update<true>(p, n, x, state_i, state_v, state_b, z_out,
                    v_decayed_out, b0_out);
}
#endif

}  // namespace

void alif_step(const AlifParameters& p, std::int64_t n, const float* x,
               float* state_i, float* state_v, float* state_b, float* z_out,
               float* v_decayed_out, float* b0_out) {
  alif_kernel(p, n, x, state_i, state_v, state_b, z_out, v_decayed_out,
              b0_out);
}

AlifLayer::AlifLayer(std::int64_t time_steps, AlifParameters params,
                     Surrogate surrogate)
    : time_steps_(time_steps), params_(params), surrogate_(surrogate) {
  SNNSEC_CHECK(time_steps_ > 0, "AlifLayer: time_steps must be positive");
  params_.validate();
}

Tensor AlifLayer::forward(const Tensor& x, nn::Mode mode) {
  const std::int64_t total = x.dim(0);
  SNNSEC_CHECK(total % time_steps_ == 0,
               name() << ": dim0 " << total << " not divisible by T="
                      << time_steps_);
  const std::int64_t per_step = x.numel() / time_steps_;

  Tensor z(x.shape());
  Tensor vd(x.shape());
  Tensor badapt_cache(x.shape());
  const float* px = x.data();
  float* pz = z.data();
  float* pvd = vd.data();
  float* pb = badapt_cache.data();

  util::parallel_for_chunked(
      0, per_step, per_step * time_steps_,
      [&](std::int64_t lo, std::int64_t hi) {
        const std::int64_t len = hi - lo;
        // State carries come from the worker thread's arena — the per-call
        // vectors this replaced were a steady malloc/free drumbeat at attack
        // and serving scale.
        util::Workspace& tws = util::Workspace::local();
        util::Workspace::Scope chunk_scope(tws);
        float* state_i = tws.alloc<float>(static_cast<std::size_t>(len));
        float* state_v = tws.alloc<float>(static_cast<std::size_t>(len));
        float* state_b = tws.alloc<float>(static_cast<std::size_t>(len));
        std::fill(state_i, state_i + len, 0.0f);
        std::fill(state_v, state_v + len, 0.0f);
        std::fill(state_b, state_b + len, 0.0f);
        for (std::int64_t t = 0; t < time_steps_; ++t) {
          const std::int64_t off = t * per_step + lo;
          alif_step(params_, len, px + off, state_i, state_v, state_b, pz + off,
                    pvd + off, pb + off);
        }
      });

  double spike_sum = 0.0;
  for (std::int64_t i = 0; i < z.numel(); ++i) spike_sum += pz[i];
  last_spike_rate_ = spike_sum / static_cast<double>(z.numel());
  if (probe_)
    last_activity_ =
        activity_stats(z, vd, time_steps_, last_spike_rate_, params_.lif);

  if (nn::cache_enabled(mode)) {
    v_decayed_ = std::move(vd);
    spikes_ = z;
    adaptation_ = std::move(badapt_cache);
    per_step_ = per_step;
    have_cache_ = true;
  }
  return z;
}

Tensor AlifLayer::backward(const Tensor& grad_out) {
  SNNSEC_CHECK(have_cache_, name() << "::backward without cached forward");
  SNNSEC_CHECK(grad_out.shape() == spikes_.shape(),
               name() << "::backward: grad shape mismatch");
  const LifParameters& p = params_.lif;
  const float a = p.a();
  const float bsyn = p.b();
  const float beta = params_.beta;
  const float rho = params_.rho;
  const Surrogate sg = surrogate_;
  const std::int64_t per_step = per_step_;

  Tensor dx(grad_out.shape());
  const float* gz = grad_out.data();
  const float* pvd = v_decayed_.data();
  const float* pz = spikes_.data();
  const float* pb = adaptation_.data();
  float* pdx = dx.data();

  util::parallel_for_chunked(
      0, per_step, per_step * time_steps_,
      [&](std::int64_t lo, std::int64_t hi) {
        const std::int64_t len = hi - lo;
        std::vector<float> gv(static_cast<std::size_t>(len), 0.0f);
        std::vector<float> gi(static_cast<std::size_t>(len), 0.0f);
        std::vector<float> gb(static_cast<std::size_t>(len), 0.0f);
        for (std::int64_t t = time_steps_ - 1; t >= 0; --t) {
          const std::int64_t off = t * per_step + lo;
          for (std::int64_t k = 0; k < len; ++k) {
            const float vd = pvd[off + k];
            const float z = pz[off + k];
            const float b0 = pb[off + k];
            const float carry_v = gv[static_cast<std::size_t>(k)];
            const float carry_i = gi[static_cast<std::size_t>(k)];
            const float carry_b = gb[static_cast<std::size_t>(k)];
            pdx[off + k] = carry_i;
            const float theta = p.v_th + beta * b0;
            const float s = sg.grad(vd - theta);
            const float tdz = gz[off + k] + carry_v * (p.v_reset - vd) +
                              carry_b * (1.0f - rho);
            const float gvd = carry_v * (1.0f - z) + tdz * s;
            gv[static_cast<std::size_t>(k)] = gvd * (1.0f - a);
            gi[static_cast<std::size_t>(k)] = gvd * a + carry_i * bsyn;
            gb[static_cast<std::size_t>(k)] = carry_b * rho - tdz * beta * s;
          }
        }
      });
  return dx;
}

std::string AlifLayer::name() const {
  std::ostringstream oss;
  oss << "AlifLayer(T=" << time_steps_ << ", v_th=" << params_.lif.v_th
      << ", beta=" << params_.beta << ", rho=" << params_.rho << ")";
  return oss.str();
}

void AlifLayer::clear_cache() {
  v_decayed_ = Tensor();
  spikes_ = Tensor();
  adaptation_ = Tensor();
  have_cache_ = false;
}

}  // namespace snnsec::snn
