// Hybrid-parallel CNN training (paper Section 5.3).
//
// Parallelization follows Krizhevsky's "one weird trick" as the paper does:
// convolutional layers are data-parallel (the minibatch is split across
// ranks; weight gradients are summed with allreduce, overlappable with the
// backpropagation of earlier layers), while fully-connected layers are
// model-parallel (neurons split across ranks; activations/gradients move
// through synchronous all-to-all exchanges inside the iteration).
//
// Two entry points:
//  * DistributedTrainer — real arithmetic at small scale; validated by
//    matching a serial trainer bit-for-bit-ish (fp tolerance).
//  * run_cnn_perf — AlexNet-scale cost-model harness behind Figure 14.
#pragma once

#include <optional>

#include "apps/cnn/layers.hpp"
#include "core/proxy.hpp"
#include "mpi/rank_ctx.hpp"

namespace cnn {

/// A small conv->relu->pool->fc->fc network trained data/model-hybrid.
/// Geometry is fixed small so tests run fast; all ranks initialize identical
/// weights (deterministic seeds) exactly like a broadcast would.
class DistributedTrainer {
 public:
  /// in: images (global_batch, in_c, h, w); global_batch divisible by ranks,
  /// fc1 output neurons divisible by ranks.
  DistributedTrainer(smpi::RankCtx& rc, core::Proxy& proxy, int in_c, int h,
                     int w, int conv_c, int fc_hidden, int fc_out);

  /// One SGD step on this rank's shard of the global batch; returns the
  /// global mean loss. Target layout: (global_batch, fc_out).
  float train_step(const Tensor& local_images,
                   const std::vector<float>& global_targets, int global_batch,
                   float lr);

  Conv2d& conv() { return conv_; }
  Linear& fc1() { return fc1_; }
  Linear& fc2() { return fc2_; }

 private:
  smpi::RankCtx& rc_;
  core::Proxy& proxy_;
  Conv2d conv_;
  Linear fc1_, fc2_;  ///< model-parallel: each rank owns out_f/P rows
  int fc_hidden_, fc_out_;
  int feat_ = 0;  ///< flattened conv feature size
};

/// Serial reference trainer with identical topology and seeds.
class SerialTrainer {
 public:
  SerialTrainer(int in_c, int h, int w, int conv_c, int fc_hidden, int fc_out);
  float train_step(const Tensor& images, const std::vector<float>& targets,
                   float lr);
  Conv2d& conv() { return conv_; }
  Linear& fc1() { return fc1_; }
  Linear& fc2() { return fc2_; }

 private:
  Conv2d conv_;
  Linear fc1_, fc2_;
};

// ------------------------------------------------------------------ perf ----

/// One rank per node of the Xeon/FDR profile, a global batch of 256 images,
/// one warm-up iteration before the `iters` measured ones.
struct CnnPerfConfig {
  int nodes = 2;
  core::Approach approach = core::Approach::kBaseline;
  int iters = 4;
  /// Forced schedule for the gradient allreduces (unset = the tuner's
  /// default, which picks the segmented ring at CNN sizes).
  std::optional<smpi::CollAlgo> allreduce_algo;
};

struct CnnPerfResult {
  double iter_ms = 0;
  double imgs_per_sec = 0;
  int ranks = 0;
};

/// AlexNet-like layer schedule: 5 conv layers (data-parallel, gradients
/// allreduced with overlap) + 3 FC layers (model-parallel, synchronous
/// all-to-alls), per Figure 14.
CnnPerfResult run_cnn_perf(const CnnPerfConfig& cfg);

}  // namespace cnn
