// SNNSEC_HOT — steady-state kernel file: naked heap allocation and
// container growth are forbidden here (snnsec_lint snnsec-hot-alloc);
// scratch memory comes from util::Workspace so warmed-up runs are
// zero-alloc (asserted by bench_runner's operator-new hook).
#include "tensor/spike_events.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "util/checked.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace snnsec::tensor {

namespace {

/// One C row of the event kernel: accumulate value-scaled rows of packed B
/// for every event, four events per trip with a fixed association order, then
/// the alpha/beta store. The trip count and association depend only on the
/// row's own event count, never on neighboring rows or the thread schedule —
/// the bit-identity the serial-vs-parallel tests pin down.
SNNSEC_KERNEL_CLONES
void event_accum_row(std::int64_t cnt, const std::int32_t* idx,
                     const float* val, const float* bp, std::int64_t n,
                     float alpha, float beta, float* crow, float* acc) {
  std::fill(acc, acc + n, 0.0f);
  std::int64_t e = 0;
  for (; e + 4 <= cnt; e += 4) {
    const float* b0 = bp + static_cast<std::int64_t>(idx[e]) * n;
    const float* b1 = bp + static_cast<std::int64_t>(idx[e + 1]) * n;
    const float* b2 = bp + static_cast<std::int64_t>(idx[e + 2]) * n;
    const float* b3 = bp + static_cast<std::int64_t>(idx[e + 3]) * n;
    const float v0 = val[e];
    const float v1 = val[e + 1];
    const float v2 = val[e + 2];
    const float v3 = val[e + 3];
    for (std::int64_t j = 0; j < n; ++j)
      acc[j] += v0 * b0[j] + v1 * b1[j] + v2 * b2[j] + v3 * b3[j];
  }
  for (; e < cnt; ++e) {
    const float* brow = bp + static_cast<std::int64_t>(idx[e]) * n;
    const float v = val[e];
    for (std::int64_t j = 0; j < n; ++j) acc[j] += v * brow[j];
  }
  // NOLINTNEXTLINE(snnsec-float-eq): beta exactly 0 selects the overwrite path; near-zero must still scale C
  if (beta == 0.0f) {
    for (std::int64_t j = 0; j < n; ++j) crow[j] = alpha * acc[j];
  } else {
    for (std::int64_t j = 0; j < n; ++j)
      crow[j] = beta * crow[j] + alpha * acc[j];
  }
}

/// Scatter one sample's input events into its Ct panel. Per event: find the
/// [oy_min, oy_max] x [ox_min, ox_max] window rectangle it occupies, then
/// FMA the value-scaled W^T row of the corresponding patch position into
/// each window's output row. For a fixed output row the (ch, iy, ix) scan
/// order visits contributions in ascending (ch, kh, kw) — ascending patch
/// index — so per-element accumulation order is a pure function of the
/// sample's data and the geometry.
///
/// `wt` is kw-reversed (pack_conv_events_operand): window ox takes patch
/// column kw = x - ox*stride_w from packed row KW-1-kw, which ADVANCES with
/// ox. At stride 1 one event's windows in one output row therefore read
/// consecutive packed rows and write consecutive Ct rows, and the whole
/// (ox_max - ox_min + 1) * cout run is a single axpy — the same products
/// into the same elements in the same event order as one axpy per window.
SNNSEC_KERNEL_CLONES
void conv_scatter_sample(const ConvGeometry& g, std::int64_t oh,
                         std::int64_t ow, const std::int32_t* cnt,
                         const std::int32_t* idx, const float* val,
                         const float* wt, std::int64_t cout, float* cti) {
  const std::int64_t kw_last = g.kernel_w - 1;
  for (std::int64_t ch = 0; ch < g.channels; ++ch) {
    for (std::int64_t iy = 0; iy < g.height; ++iy) {
      const std::int64_t r = ch * g.height + iy;
      const std::int32_t rc = cnt[r];
      if (rc == 0) continue;
      const std::int32_t* rix = idx + r * g.width;
      const float* rv = val + r * g.width;
      const std::int64_t y = iy + g.pad_h;
      const std::int64_t oy_max = std::min(oh - 1, y / g.stride_h);
      const std::int64_t ya = y - g.kernel_h + 1;
      const std::int64_t oy_min =
          ya > 0 ? (ya + g.stride_h - 1) / g.stride_h : 0;
      for (std::int32_t e = 0; e < rc; ++e) {
        const std::int64_t x = rix[e] + g.pad_w;
        const std::int64_t ox_max = std::min(ow - 1, x / g.stride_w);
        const std::int64_t xa = x - g.kernel_w + 1;
        const std::int64_t ox_min =
            xa > 0 ? (xa + g.stride_w - 1) / g.stride_w : 0;
        const float v = rv[e];
        for (std::int64_t oy = oy_min; oy <= oy_max; ++oy) {
          const std::int64_t kh = y - oy * g.stride_h;
          // Packed row of window ox: wbase + ox * stride_w.
          const std::int64_t wbase =
              (ch * g.kernel_h + kh) * g.kernel_w + kw_last - x;
          float* crow0 = cti + oy * ow * cout;
          if (g.stride_w == 1) {
            const float* wrun = wt + (wbase + ox_min) * cout;
            float* crun = crow0 + ox_min * cout;
            const std::int64_t len = (ox_max - ox_min + 1) * cout;
            for (std::int64_t j = 0; j < len; ++j) crun[j] += v * wrun[j];
          } else {
            for (std::int64_t ox = ox_min; ox <= ox_max; ++ox) {
              const float* wrow = wt + (wbase + ox * g.stride_w) * cout;
              float* crow = crow0 + ox * cout;
              for (std::int64_t j = 0; j < cout; ++j) crow[j] += v * wrow[j];
            }
          }
        }
      }
    }
  }
}

}  // namespace

EventRows build_event_rows(const float* a, std::int64_t lda, std::int64_t rows,
                           std::int64_t cols, util::Workspace& ws) {
  SNNSEC_CHECK(rows >= 0 && cols >= 0 && lda >= cols,
               "build_event_rows: bad geometry rows=" << rows << " cols="
                                                      << cols << " lda="
                                                      << lda);
  SNNSEC_CHECK(cols <= std::numeric_limits<std::int32_t>::max(),
               "build_event_rows: cols " << cols << " overflows int32 index");
  EventRows ev;
  ev.rows = rows;
  ev.cols = cols;
  ev.stride = cols;
  std::int32_t* cnt = ws.alloc<std::int32_t>(static_cast<std::size_t>(rows));
  std::int32_t* idx =
      ws.alloc<std::int32_t>(static_cast<std::size_t>(rows * cols));
  float* val = ws.alloc<float>(static_cast<std::size_t>(rows * cols));
  auto build_rows = [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const float* arow = a + i * lda;
      std::int32_t* irow = idx + i * cols;
      float* vrow = val + i * cols;
      std::int32_t c = 0;
      for (std::int64_t j = 0; j < cols; ++j) {
        const float v = arow[j];
        // NOLINTNEXTLINE(snnsec-float-eq): spike operands are exactly 0 or 1; only true zeros may be dropped
        if (v == 0.0f) continue;
        irow[c] = static_cast<std::int32_t>(j);
        vrow[c] = v;
        ++c;
      }
      cnt[i] = c;
    }
  };
  util::parallel_for_chunked(0, rows, rows * cols, build_rows);
  ev.count = cnt;
  ev.index = idx;
  ev.value = val;
  return ev;
}

EventRows build_conv_events(const ConvGeometry& g, const float* images,
                            std::int64_t batch, util::Workspace& ws) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t patch = g.patch_size();
  SNNSEC_CHECK(batch >= 0, "build_conv_events: negative batch");
  SNNSEC_CHECK(patch <= std::numeric_limits<std::int32_t>::max(),
               "build_conv_events: patch " << patch
                                           << " overflows int32 index");
  EventRows ev;
  ev.rows = batch * ohw;
  ev.cols = patch;
  ev.stride = patch;
  std::int32_t* cnt =
      ws.alloc<std::int32_t>(static_cast<std::size_t>(ev.rows));
  std::int32_t* idx =
      ws.alloc<std::int32_t>(static_cast<std::size_t>(ev.rows * patch));
  float* val = ws.alloc<float>(static_cast<std::size_t>(ev.rows * patch));
  // Event-driven build, two stages, so work scales with the spikes that
  // exist rather than with the patch volume (receptive fields overlap up to
  // KH*KW-fold):
  //   1. compress every input scanline into its own event list — the whole
  //      batch viewed as a [batch*C*H, W] matrix, each pixel read once;
  //   2. for each (oy, ch, kh), sweep the contributing scanline's events
  //      ONCE and scatter each into the ox windows it falls in, advancing a
  //      per-ox write cursor. A silent scanline — the common case for spike
  //      planes — costs a single count load, and padding rows are skipped
  //      without reading anything.
  // Emission order per output row: (ch, kh) ascend in the outer loops and,
  // within one (ch, kh), a row receives events in ascending ix, hence
  // ascending patch index c*KH*KW + kh*KW + kw — exactly im2col's row
  // order, so the lists are identical to a direct patch scan's.
  const std::int64_t in_rows = batch * g.channels * g.height;
  const EventRows in_ev =
      build_event_rows(images, g.width, in_rows, g.width, ws);
  const std::int32_t* in_cnt = in_ev.count;
  const std::int32_t* in_idx = in_ev.index;
  const float* in_val = in_ev.value;
  util::parallel_for(0, batch, ev.rows * patch, [=](std::int64_t i) {
    util::Workspace& tws = util::Workspace::local();
    util::Workspace::Scope scope(tws);
    std::int32_t* cur = tws.alloc<std::int32_t>(static_cast<std::size_t>(ow));
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      const std::int64_t row0 = i * ohw + oy * ow;
      std::fill(cur, cur + ow, 0);
      for (std::int64_t ch = 0; ch < g.channels; ++ch) {
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
          const std::int64_t iy = oy * g.stride_h + kh - g.pad_h;
          if (iy < 0 || iy >= g.height) continue;
          const std::int64_t r = (i * g.channels + ch) * g.height + iy;
          const std::int32_t rc = in_cnt[r];
          if (rc == 0) continue;
          const std::int32_t* rix = in_idx + r * g.width;
          const float* rv = in_val + r * g.width;
          const std::int64_t base = (ch * g.kernel_h + kh) * g.kernel_w;
          for (std::int32_t e = 0; e < rc; ++e) {
            const std::int64_t x = rix[e] + g.pad_w;
            const std::int64_t ox_max = std::min(ow - 1, x / g.stride_w);
            const std::int64_t a = x - g.kernel_w + 1;
            const std::int64_t ox_min =
                a > 0 ? (a + g.stride_w - 1) / g.stride_w : 0;
            const float v = rv[e];
            for (std::int64_t ox = ox_min; ox <= ox_max; ++ox) {
              const std::int64_t row = row0 + ox;
              const std::int32_t c = cur[ox]++;
              idx[row * patch + c] =
                  static_cast<std::int32_t>(base + x - ox * g.stride_w);
              val[row * patch + c] = v;
            }
          }
        }
      }
      for (std::int64_t ox = 0; ox < ow; ++ox) cnt[row0 + ox] = cur[ox];
    }
  });
  ev.count = cnt;
  ev.index = idx;
  ev.value = val;
  return ev;
}

void conv_events_packed(const ConvGeometry& g, const float* images,
                        std::int64_t batch, const float* wt, std::int64_t cout,
                        float* ct, util::Workspace& ws) {
  SNNSEC_CHECK(batch >= 0 && cout > 0,
               "conv_events: bad batch=" << batch << " cout=" << cout);
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  SNNSEC_COUNTER_ADD("tensor.gemm.calls", 1);
  SNNSEC_COUNTER_ADD("tensor.gemm.events_path", 1);
  util::Workspace::Scope scope(ws);
  // Scanline event lists for the whole batch: each input pixel read once.
  const EventRows in_ev = build_event_rows(
      images, g.width, batch * g.channels * g.height, g.width, ws);
  const std::int32_t* cnt = in_ev.count;
  const std::int32_t* idx = in_ev.index;
  const float* val = in_ev.value;
  const std::int64_t sample_rows = g.channels * g.height;
  // Work as if every input were a spike: a shape bound, not a data probe.
  const std::int64_t work = batch * ohw * g.patch_size() * cout;
  util::parallel_for(0, batch, work, [=](std::int64_t i) {
    float* cti = ct + i * ohw * cout;
    std::fill(cti, cti + ohw * cout, 0.0f);
    conv_scatter_sample(g, oh, ow, cnt + i * sample_rows,
                        idx + i * sample_rows * g.width,
                        val + i * sample_rows * g.width, wt, cout, cti);
  });
}

void conv_events(const ConvGeometry& g, const float* images,
                 std::int64_t batch, const float* w, std::int64_t cout,
                 float* ct, util::Workspace& ws) {
  const std::int64_t patch = g.patch_size();
  util::Workspace::Scope scope(ws);
  float* wt = ws.alloc<float>(static_cast<std::size_t>(patch * cout));
  pack_conv_events_operand(patch, g.kernel_w, cout, w, wt);
  conv_events_packed(g, images, batch, wt, cout, ct, ws);
}

void pack_conv_events_operand(std::int64_t patch, std::int64_t kernel_w,
                              std::int64_t cout, const float* w, float* wt) {
  SNNSEC_CHECK(kernel_w > 0 && patch % kernel_w == 0,
               "pack_conv_events_operand: patch "
                   << patch << " is not a multiple of kernel_w " << kernel_w);
  for (std::int64_t row = 0; row < patch; row += kernel_w)
    for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
      float* dst = wt + (row + kernel_w - 1 - kw) * cout;
      const float* src = w + row + kw;
      for (std::int64_t j = 0; j < cout; ++j) dst[j] = src[j * patch];
    }
}

void pack_events_operand(Trans trans_b, std::int64_t k, std::int64_t n,
                         const float* b, std::int64_t ldb, float* bp) {
  if (trans_b == Trans::kNo && ldb == n) {
    std::copy(b, b + k * n, bp);
  } else if (trans_b == Trans::kNo) {
    for (std::int64_t kk = 0; kk < k; ++kk)
      for (std::int64_t j = 0; j < n; ++j) bp[kk * n + j] = b[kk * ldb + j];
  } else {
    for (std::int64_t kk = 0; kk < k; ++kk)
      for (std::int64_t j = 0; j < n; ++j) bp[kk * n + j] = b[j * ldb + kk];
  }
}

void gemm_events_packed(const EventRows& ev, std::int64_t n, float alpha,
                        const float* bp, float beta, float* c,
                        std::int64_t ldc) {
  if (ev.rows <= 0 || n <= 0) return;
  SNNSEC_CHECK(ev.count != nullptr && ev.index != nullptr &&
                   ev.value != nullptr && ev.stride >= 0,
               "gemm_events: uninitialized EventRows");
  const std::int64_t k = ev.cols;
  SNNSEC_COUNTER_ADD("tensor.gemm.calls", 1);
  SNNSEC_COUNTER_ADD("tensor.gemm.events_path", 1);
  const std::int32_t* cnt = ev.count;
  const std::int32_t* idx = ev.index;
  const float* val = ev.value;
  const std::int64_t stride = ev.stride;
  auto row_panel = [=](std::int64_t lo, std::int64_t hi) {
    util::Workspace& tws = util::Workspace::local();
    util::Workspace::Scope row_scope(tws);
    float* acc = tws.alloc<float>(static_cast<std::size_t>(n));
    for (std::int64_t i = lo; i < hi; ++i)
      event_accum_row(cnt[i], idx + i * stride, val + i * stride, bp, n,
                      alpha, beta, c + i * ldc, acc);
  };
  // Work from the shape, not from the event counts, so the schedule is
  // deterministic per call site.
  util::parallel_for_chunked(0, ev.rows, ev.rows * n * k, row_panel);
}

void gemm_events(const EventRows& ev, Trans trans_b, std::int64_t n,
                 float alpha, const float* b, std::int64_t ldb, float beta,
                 float* c, std::int64_t ldc) {
  if (ev.rows <= 0 || n <= 0) return;
  const std::int64_t k = ev.cols;
  util::Workspace& ws = util::Workspace::local();
  util::Workspace::Scope scope(ws);
  float* bp = ws.alloc<float>(static_cast<std::size_t>(k * n));
  pack_events_operand(trans_b, k, n, b, ldb, bp);
  gemm_events_packed(ev, n, alpha, bp, beta, c, ldc);
}

}  // namespace snnsec::tensor
