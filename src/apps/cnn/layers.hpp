// Minimal-but-real CNN layers (paper Section 5.3): conv2d, ReLU, 2x2 max
// pooling, fully-connected, MSE loss — forward and backward passes with SGD.
// Correctness is established by finite-difference gradient checks; the
// distributed trainer (trainer.hpp) reuses these kernels at small scale.
#pragma once

#include <cstdint>
#include <vector>

namespace cnn {

/// Dense 4-D tensor (N, C, H, W), row-major with W fastest.
struct Tensor {
  int n = 0, c = 0, h = 0, w = 0;
  std::vector<float> v;

  Tensor() = default;
  Tensor(int n_, int c_, int h_, int w_)
      : n(n_), c(c_), h(h_), w(w_),
        v(static_cast<std::size_t>(n_) * c_ * h_ * w_, 0.0f) {}
  [[nodiscard]] std::size_t size() const { return v.size(); }
  [[nodiscard]] float& at(int in, int ic, int ih, int iw) {
    return v[((static_cast<std::size_t>(in) * c + ic) * h + ih) * w + iw];
  }
  [[nodiscard]] float at(int in, int ic, int ih, int iw) const {
    return v[((static_cast<std::size_t>(in) * c + ic) * h + ih) * w + iw];
  }
};

void fill_random(std::vector<float>& v, std::uint64_t seed, float scale);

/// 2-D convolution, stride 1, valid padding.
class Conv2d {
 public:
  Conv2d(int in_c, int out_c, int k);

  [[nodiscard]] int out_h(int in_h) const { return in_h - k_ + 1; }
  [[nodiscard]] int out_w(int in_w) const { return in_w - k_ + 1; }

  Tensor forward(const Tensor& x) const;
  /// Returns dL/dx; accumulates dL/dw into wgrad/bgrad (caller zeroes them).
  Tensor backward(const Tensor& x, const Tensor& dy);
  void sgd_step(float lr);
  void zero_grad();

  std::vector<float> weight;  ///< (out_c, in_c, k, k)
  std::vector<float> bias;    ///< (out_c)
  std::vector<float> wgrad, bgrad;

 private:
  int in_c_, out_c_, k_;
};

Tensor relu_forward(const Tensor& x);
Tensor relu_backward(const Tensor& x, const Tensor& dy);

/// 2x2 max pooling, stride 2 (h, w must be even).
Tensor maxpool_forward(const Tensor& x, Tensor* argmax = nullptr);
Tensor maxpool_backward(const Tensor& x, const Tensor& argmax, const Tensor& dy);

/// Fully connected y = W x + b over flattened (C*H*W) features.
class Linear {
 public:
  Linear(int in_f, int out_f);

  /// x: (N, in_f) flattened; returns (N, out_f).
  std::vector<float> forward(const std::vector<float>& x, int batch) const;
  std::vector<float> backward(const std::vector<float>& x,
                              const std::vector<float>& dy, int batch);
  void sgd_step(float lr);
  void zero_grad();

  int in_f, out_f;
  std::vector<float> weight;  ///< (out_f, in_f)
  std::vector<float> bias;
  std::vector<float> wgrad, bgrad;
};

/// 0.5 * mean squared error; fills dpred.
float mse_loss(const std::vector<float>& pred, const std::vector<float>& target,
               std::vector<float>* dpred);

}  // namespace cnn
