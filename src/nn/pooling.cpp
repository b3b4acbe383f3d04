#include "nn/pooling.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/checked.hpp"
#include "util/simd.hpp"

namespace snnsec::nn {

using tensor::Shape;
using tensor::Tensor;

namespace {
std::int64_t pooled_size(std::int64_t in, std::int64_t kernel,
                         std::int64_t stride) {
  // Guard before dividing: C++ truncation would turn (in < kernel) into a
  // bogus positive size (e.g. (2-4)/4 + 1 == 1) and an out-of-bounds walk.
  if (in < kernel) return 0;
  return (in - kernel) / stride + 1;
}

// Shared accumulation core for AvgPool2d::forward and forward_into — one
// loop, one summation order, bit-identical results on both entry points.
// Outputs accumulate in place with ox innermost: for each window offset
// (ky, kx), in order, every output row adds its one input term, so each
// output still sums 0 + x(0,0) + x(0,1) + ... in (ky, kx) order before the
// single scale, while the inner loop is a (strided) vector add instead of a
// walk over a runtime-sized window. Adds and one multiply only — nothing
// to contract — so both kernel versions give the same bits.
SNNSEC_KERNEL_CLONES
void avg_pool_planes(const float* __restrict px, float* __restrict py,
                     std::int64_t planes, std::int64_t h, std::int64_t w,
                     std::int64_t oh, std::int64_t ow, std::int64_t kernel,
                     std::int64_t stride) {
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  const std::int64_t total = planes * oh * ow;
  std::fill(py, py + total, 0.0f);
  for (std::int64_t nc = 0; nc < planes; ++nc) {
    const float* plane = px + nc * h * w;
    float* out = py + nc * oh * ow;
    for (std::int64_t ky = 0; ky < kernel; ++ky)
      for (std::int64_t kx = 0; kx < kernel; ++kx)
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const float* irow = plane + (oy * stride + ky) * w + kx;
          float* orow = out + oy * ow;
          for (std::int64_t ox = 0; ox < ow; ++ox)
            orow[ox] += irow[ox * stride];
        }
  }
  for (std::int64_t q = 0; q < total; ++q) py[q] *= inv;
}
}  // namespace

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride < 0 ? kernel : stride) {
  SNNSEC_CHECK(kernel_ > 0 && stride_ > 0, "AvgPool2d: bad kernel/stride");
}

Tensor AvgPool2d::forward(const Tensor& x, Mode /*mode*/) {
  SNNSEC_CHECK(x.ndim() == 4, name() << ": expects [N,C,H,W], got "
                                     << x.shape().to_string());
  n_ = x.dim(0);
  c_ = x.dim(1);
  h_ = x.dim(2);
  w_ = x.dim(3);
  const std::int64_t oh = pooled_size(h_, kernel_, stride_);
  const std::int64_t ow = pooled_size(w_, kernel_, stride_);
  SNNSEC_CHECK(oh > 0 && ow > 0, name() << ": input smaller than kernel");
  have_cache_ = true;

  Tensor y(Shape{n_, c_, oh, ow});
  avg_pool_planes(x.data(), y.data(), n_ * c_, h_, w_, oh, ow, kernel_,
                  stride_);
  return y;
}

void AvgPool2d::forward_into(const Tensor& x, Tensor& y) const {
  SNNSEC_CHECK(x.ndim() == 4, name() << ": expects [N,C,H,W], got "
                                     << x.shape().to_string());
  const std::int64_t n = x.dim(0);
  const std::int64_t c = x.dim(1);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  const std::int64_t oh = pooled_size(h, kernel_, stride_);
  const std::int64_t ow = pooled_size(w, kernel_, stride_);
  SNNSEC_CHECK(oh > 0 && ow > 0, name() << ": input smaller than kernel");
  if (y.ndim() != 4 || y.dim(0) != n || y.dim(1) != c || y.dim(2) != oh ||
      y.dim(3) != ow)
    y = Tensor(Shape{n, c, oh, ow});
  avg_pool_planes(x.data(), y.data(), n * c, h, w, oh, ow, kernel_, stride_);
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  SNNSEC_CHECK(have_cache_, name() << "::backward without forward");
  const std::int64_t oh = pooled_size(h_, kernel_, stride_);
  const std::int64_t ow = pooled_size(w_, kernel_, stride_);
  SNNSEC_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == n_ &&
                   grad_out.dim(1) == c_ && grad_out.dim(2) == oh &&
                   grad_out.dim(3) == ow,
               name() << "::backward: bad grad shape "
                      << grad_out.shape().to_string());
  Tensor dx(Shape{n_, c_, h_, w_});
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  const float* pg = grad_out.data();
  float* pd = dx.data();
  for (std::int64_t nc = 0; nc < n_ * c_; ++nc) {
    float* plane = pd + nc * h_ * w_;
    const float* gout = pg + nc * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const float g = gout[oy * ow + ox] * inv;
        for (std::int64_t ky = 0; ky < kernel_; ++ky)
          for (std::int64_t kx = 0; kx < kernel_; ++kx)
            plane[(oy * stride_ + ky) * w_ + ox * stride_ + kx] += g;
      }
  }
  return dx;
}

std::string AvgPool2d::name() const {
  std::ostringstream oss;
  oss << "AvgPool2d(" << kernel_ << ", stride=" << stride_ << ")";
  return oss.str();
}

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride < 0 ? kernel : stride) {
  SNNSEC_CHECK(kernel_ > 0 && stride_ > 0, "MaxPool2d: bad kernel/stride");
}

Tensor MaxPool2d::forward(const Tensor& x, Mode mode) {
  SNNSEC_CHECK(x.ndim() == 4, name() << ": expects [N,C,H,W], got "
                                     << x.shape().to_string());
  n_ = x.dim(0);
  c_ = x.dim(1);
  h_ = x.dim(2);
  w_ = x.dim(3);
  const std::int64_t oh = pooled_size(h_, kernel_, stride_);
  const std::int64_t ow = pooled_size(w_, kernel_, stride_);
  SNNSEC_CHECK(oh > 0 && ow > 0, name() << ": input smaller than kernel");

  Tensor y(Shape{n_, c_, oh, ow});
  const bool keep = cache_enabled(mode);
  if (keep) argmax_.assign(static_cast<std::size_t>(n_ * c_ * oh * ow), 0);
  have_cache_ = keep;

  const float* px = x.data();
  float* py = y.data();
  for (std::int64_t nc = 0; nc < n_ * c_; ++nc) {
    const float* plane = px + nc * h_ * w_;
    float* out = py + nc * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = 0;
        for (std::int64_t ky = 0; ky < kernel_; ++ky)
          for (std::int64_t kx = 0; kx < kernel_; ++kx) {
            const std::int64_t idx =
                (oy * stride_ + ky) * w_ + ox * stride_ + kx;
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
        out[oy * ow + ox] = best;
        if (keep)
          argmax_[static_cast<std::size_t>(nc * oh * ow + oy * ow + ox)] =
              nc * h_ * w_ + best_idx;
      }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  SNNSEC_CHECK(have_cache_, name() << "::backward without train-mode forward");
  const std::int64_t oh = pooled_size(h_, kernel_, stride_);
  const std::int64_t ow = pooled_size(w_, kernel_, stride_);
  SNNSEC_CHECK(grad_out.numel() ==
                   static_cast<std::int64_t>(argmax_.size()) &&
                   grad_out.dim(2) == oh && grad_out.dim(3) == ow,
               name() << "::backward: bad grad shape "
                      << grad_out.shape().to_string());
  Tensor dx(Shape{n_, c_, h_, w_});
  const float* pg = grad_out.data();
  float* pd = dx.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    // The argmax scatter is the one indirect write in the backward pass: a
    // corrupted index would smear gradient into a neighboring image plane.
    SNNSEC_DCHECK(argmax_[i] >= 0 && argmax_[i] < dx.numel(),
                  name() << "::backward: argmax index " << argmax_[i]
                         << " outside input of " << dx.numel());
    pd[argmax_[i]] += pg[static_cast<std::int64_t>(i)];
  }
  return dx;
}

std::string MaxPool2d::name() const {
  std::ostringstream oss;
  oss << "MaxPool2d(" << kernel_ << ", stride=" << stride_ << ")";
  return oss.str();
}

}  // namespace snnsec::nn
