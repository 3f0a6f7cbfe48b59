// CNN correctness: finite-difference gradient checks, distributed-equals-
// serial training, perf-harness sanity.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/cnn/trainer.hpp"
#include "mpi/cluster.hpp"

using namespace cnn;
using core::Approach;

namespace {

smpi::ClusterConfig ccfg(int n) {
  smpi::ClusterConfig c;
  c.nranks = n;
  c.deadline = sim::Time::from_sec(120);
  return c;
}

/// Forward pass of the tiny serial net as a scalar loss function of a
/// perturbed parameter — used by the finite-difference checks.
float net_loss(Conv2d& conv, Linear& fc, const Tensor& x,
               const std::vector<float>& target) {
  Tensor c1 = conv.forward(x);
  Tensor r1 = relu_forward(c1);
  Tensor am;
  Tensor p1 = maxpool_forward(r1, &am);
  std::vector<float> pred = fc.forward(p1.v, x.n);
  return mse_loss(pred, target, nullptr);
}

}  // namespace

TEST(Layers, ConvGradientFiniteDifference) {
  Tensor x(2, 2, 6, 6);
  fill_random(x.v, 1, 1.0f);
  Conv2d conv(2, 3, 3);
  Linear fc(3 * 2 * 2, 2);
  std::vector<float> target(2 * 2);
  fill_random(target, 2, 1.0f);

  // Analytic gradients.
  conv.zero_grad();
  fc.zero_grad();
  Tensor c1 = conv.forward(x);
  Tensor r1 = relu_forward(c1);
  Tensor am;
  Tensor p1 = maxpool_forward(r1, &am);
  std::vector<float> pred = fc.forward(p1.v, x.n);
  std::vector<float> dpred;
  mse_loss(pred, target, &dpred);
  std::vector<float> dfeat = fc.backward(p1.v, dpred, x.n);
  Tensor dp1(p1.n, p1.c, p1.h, p1.w);
  dp1.v = dfeat;
  Tensor dr1 = maxpool_backward(r1, am, dp1);
  Tensor dc1 = relu_backward(c1, dr1);
  conv.backward(x, dc1);

  // Finite differences on a sample of conv weights and fc weights.
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < conv.weight.size(); i += 7) {
    const float w0 = conv.weight[i];
    conv.weight[i] = w0 + eps;
    const float lp = net_loss(conv, fc, x, target);
    conv.weight[i] = w0 - eps;
    const float lm = net_loss(conv, fc, x, target);
    conv.weight[i] = w0;
    const float numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(conv.wgrad[i], numeric, 2e-2f + 0.05f * std::abs(numeric))
        << "conv weight " << i;
  }
  for (std::size_t i = 0; i < fc.weight.size(); i += 5) {
    const float w0 = fc.weight[i];
    fc.weight[i] = w0 + eps;
    const float lp = net_loss(conv, fc, x, target);
    fc.weight[i] = w0 - eps;
    const float lm = net_loss(conv, fc, x, target);
    fc.weight[i] = w0;
    const float numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(fc.wgrad[i], numeric, 2e-2f + 0.05f * std::abs(numeric))
        << "fc weight " << i;
  }
}

TEST(Layers, PoolingSelectsMaxAndRoutesGradient) {
  Tensor x(1, 1, 2, 2);
  x.at(0, 0, 0, 0) = 1;
  x.at(0, 0, 0, 1) = 5;
  x.at(0, 0, 1, 0) = 2;
  x.at(0, 0, 1, 1) = 3;
  Tensor am;
  Tensor y = maxpool_forward(x, &am);
  EXPECT_EQ(y.at(0, 0, 0, 0), 5);
  Tensor dy(1, 1, 1, 1);
  dy.at(0, 0, 0, 0) = 7;
  Tensor dx = maxpool_backward(x, am, dy);
  EXPECT_EQ(dx.at(0, 0, 0, 1), 7);
  EXPECT_EQ(dx.at(0, 0, 0, 0), 0);
}

TEST(Layers, ReluMasksNegatives) {
  Tensor x(1, 1, 2, 2);
  x.v = {-1, 2, -3, 4};
  Tensor y = relu_forward(x);
  EXPECT_EQ(y.v, (std::vector<float>{0, 2, 0, 4}));
  Tensor dy = x;
  dy.v = {10, 10, 10, 10};
  Tensor dx = relu_backward(x, dy);
  EXPECT_EQ(dx.v, (std::vector<float>{0, 10, 0, 10}));
}

class HybridRanks : public ::testing::TestWithParam<int> {};

TEST_P(HybridRanks, DistributedTrainingMatchesSerial) {
  const int nranks = GetParam();
  const int batch = 8, in_c = 1, h = 6, w = 6, conv_c = 2, hidden = 8, out = 4;

  Tensor images(batch, in_c, h, w);
  fill_random(images.v, 77, 1.0f);
  std::vector<float> targets(static_cast<std::size_t>(batch) * out);
  fill_random(targets, 88, 1.0f);

  // Serial reference: 3 SGD steps on the full batch.
  SerialTrainer serial(in_c, h, w, conv_c, hidden, out);
  std::vector<float> serial_losses;
  for (int s = 0; s < 3; ++s) {
    serial_losses.push_back(serial.train_step(images, targets, 0.05f));
  }

  std::vector<float> dist_losses;
  std::vector<float> final_conv_w;
  smpi::Cluster cluster(ccfg(nranks));
  cluster.run([&](smpi::RankCtx& rc) {
    auto proxy = core::make_proxy(Approach::kBaseline, rc);
    proxy->start_engine();
    DistributedTrainer trainer(rc, *proxy, in_c, h, w, conv_c, hidden, out);
    const int local_b = batch / nranks;
    Tensor shard(local_b, in_c, h, w);
    std::copy(images.v.begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(rc.rank()) * shard.size()),
              images.v.begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(rc.rank() + 1) * shard.size()),
              shard.v.begin());
    for (int s = 0; s < 3; ++s) {
      const float loss = trainer.train_step(shard, targets, batch, 0.05f);
      if (rc.rank() == 0) dist_losses.push_back(loss);
    }
    if (rc.rank() == 0) final_conv_w = trainer.conv().weight;
    proxy->barrier();
    proxy->stop();
  });

  ASSERT_EQ(dist_losses.size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_NEAR(dist_losses[static_cast<std::size_t>(s)],
                serial_losses[static_cast<std::size_t>(s)], 1e-4f)
        << "loss diverged at step " << s;
  }
  for (std::size_t i = 0; i < final_conv_w.size(); ++i) {
    EXPECT_NEAR(final_conv_w[i], serial.conv().weight[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, HybridRanks, ::testing::Values(1, 2, 4));

TEST(CnnPerf, HarnessRunsAndOffloadWinsAtScale) {
  CnnPerfConfig c;
  c.nodes = 16;
  c.iters = 2;
  c.approach = Approach::kBaseline;
  const CnnPerfResult base = run_cnn_perf(c);
  c.approach = Approach::kOffload;
  const CnnPerfResult off = run_cnn_perf(c);
  EXPECT_GT(base.imgs_per_sec, 0);
  // Paper Fig. 14: at scale, offload beats baseline.
  EXPECT_GT(off.imgs_per_sec, base.imgs_per_sec);
}
