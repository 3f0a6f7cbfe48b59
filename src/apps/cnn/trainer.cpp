#include "apps/cnn/trainer.hpp"

#include <cstring>
#include <iterator>
#include <stdexcept>

#include "mpi/cluster.hpp"

namespace cnn {

using core::PReq;
using smpi::Datatype;

namespace {

/// Extract the row block [p*out/P, (p+1)*out/P) of a full Linear layer so
/// every rank's shard matches the serial reference initialization exactly.
Linear shard_rows(const Linear& full, int p, int parts) {
  if (full.out_f % parts != 0) throw std::invalid_argument("fc shard");
  const int rows = full.out_f / parts;
  Linear shard(full.in_f, rows);
  std::memcpy(shard.weight.data(),
              full.weight.data() + static_cast<std::size_t>(p) * rows * full.in_f,
              sizeof(float) * static_cast<std::size_t>(rows) * full.in_f);
  std::memcpy(shard.bias.data(), full.bias.data() + static_cast<std::size_t>(p) * rows,
              sizeof(float) * static_cast<std::size_t>(rows));
  return shard;
}

}  // namespace

// ------------------------------------------------------ DistributedTrainer ----

DistributedTrainer::DistributedTrainer(smpi::RankCtx& rc, core::Proxy& proxy,
                                       int in_c, int h, int w, int conv_c,
                                       int fc_hidden, int fc_out)
    : rc_(rc),
      proxy_(proxy),
      conv_(in_c, conv_c, 3),
      fc1_(shard_rows(Linear((h - 2) / 2 * ((w - 2) / 2) * conv_c, fc_hidden),
                      rc.rank(), rc.nranks())),
      fc2_(shard_rows(Linear(fc_hidden, fc_out), rc.rank(), rc.nranks())),
      fc_hidden_(fc_hidden),
      fc_out_(fc_out) {
  feat_ = (h - 2) / 2 * ((w - 2) / 2) * conv_c;
}

float DistributedTrainer::train_step(const Tensor& x,
                                     const std::vector<float>& targets,
                                     int global_batch, float lr) {
  const int p = rc_.nranks();
  const int local_b = x.n;
  if (local_b * p != global_batch) throw std::invalid_argument("batch split");

  conv_.zero_grad();
  fc1_.zero_grad();
  fc2_.zero_grad();

  // ---- data-parallel convolution forward on the local batch shard ----
  Tensor c1 = conv_.forward(x);
  Tensor r1 = relu_forward(c1);
  Tensor am;
  Tensor p1 = maxpool_forward(r1, &am);

  // Flatten local features (local_b, feat) and allgather the full batch —
  // the model-parallel FC stage needs every image on every rank.
  std::vector<float> local_feat(p1.v);
  std::vector<float> feat(static_cast<std::size_t>(global_batch) * feat_);
  proxy_.allgather(local_feat.data(), feat.data(), local_feat.size(),
                   Datatype::kFloat);

  // ---- model-parallel FC forward (each rank computes its neuron rows for
  // the whole batch, then the blocks are allgathered and re-interleaved) ----
  auto gather_neurons = [&](const std::vector<float>& mine, int rows,
                            int total) {
    std::vector<float> blocks(static_cast<std::size_t>(global_batch) * total);
    proxy_.allgather(mine.data(), blocks.data(), mine.size(), Datatype::kFloat);
    // blocks layout: (rank, batch, rows) -> want (batch, total).
    std::vector<float> out(static_cast<std::size_t>(global_batch) * total);
    for (int r = 0; r < p; ++r) {
      for (int n = 0; n < global_batch; ++n) {
        std::memcpy(out.data() + (static_cast<std::size_t>(n) * total + r * rows),
                    blocks.data() + (static_cast<std::size_t>(r) * global_batch + n) * rows,
                    sizeof(float) * static_cast<std::size_t>(rows));
      }
    }
    return out;
  };

  const std::vector<float> h1_mine = fc1_.forward(feat, global_batch);
  std::vector<float> h1_full = gather_neurons(h1_mine, fc1_.out_f, fc_hidden_);
  std::vector<float> h1_act = h1_full;
  for (float& v : h1_act) v = std::max(0.0f, v);
  const std::vector<float> y_mine = fc2_.forward(h1_act, global_batch);
  std::vector<float> pred = gather_neurons(y_mine, fc2_.out_f, fc_out_);

  std::vector<float> dpred;
  const float loss = mse_loss(pred, targets, &dpred);

  // ---- model-parallel FC backward ----
  // fc2: my dy block is the column slice of dpred for my output rows.
  std::vector<float> dy2(static_cast<std::size_t>(global_batch) * fc2_.out_f);
  for (int n = 0; n < global_batch; ++n) {
    std::memcpy(dy2.data() + static_cast<std::size_t>(n) * fc2_.out_f,
                dpred.data() + static_cast<std::size_t>(n) * fc_out_ +
                    rc_.rank() * fc2_.out_f,
                sizeof(float) * static_cast<std::size_t>(fc2_.out_f));
  }
  std::vector<float> dh1_part = fc2_.backward(h1_act, dy2, global_batch);
  // Partial input-gradients sum across ranks (each rank covered its rows).
  std::vector<float> dh1(dh1_part.size());
  proxy_.allreduce(dh1_part.data(), dh1.data(), dh1_part.size(),
                   Datatype::kFloat, smpi::Op::kSum);
  for (std::size_t i = 0; i < dh1.size(); ++i) {
    if (h1_full[i] <= 0.0f) dh1[i] = 0.0f;  // relu backward
  }
  std::vector<float> dy1(static_cast<std::size_t>(global_batch) * fc1_.out_f);
  for (int n = 0; n < global_batch; ++n) {
    std::memcpy(dy1.data() + static_cast<std::size_t>(n) * fc1_.out_f,
                dh1.data() + static_cast<std::size_t>(n) * fc_hidden_ +
                    rc_.rank() * fc1_.out_f,
                sizeof(float) * static_cast<std::size_t>(fc1_.out_f));
  }
  std::vector<float> dfeat_part = fc1_.backward(feat, dy1, global_batch);
  std::vector<float> dfeat(dfeat_part.size());
  proxy_.allreduce(dfeat_part.data(), dfeat.data(), dfeat_part.size(),
                   Datatype::kFloat, smpi::Op::kSum);

  // ---- data-parallel convolution backward on my batch shard ----
  Tensor dp1(local_b, p1.c, p1.h, p1.w);
  std::memcpy(dp1.v.data(),
              dfeat.data() + static_cast<std::size_t>(rc_.rank()) * local_b * feat_,
              sizeof(float) * dp1.v.size());
  Tensor dr1 = maxpool_backward(r1, am, dp1);
  Tensor dc1 = relu_backward(c1, dr1);
  conv_.backward(x, dc1);

  // Data-parallel gradient sum — the paper's overlappable allreduce; the
  // real-math trainer issues it nonblocking and waits before the update.
  std::vector<float> wsum(conv_.wgrad.size()), bsum(conv_.bgrad.size());
  PReq rw = proxy_.iallreduce(conv_.wgrad.data(), wsum.data(), conv_.wgrad.size(),
                              Datatype::kFloat, smpi::Op::kSum);
  PReq rb = proxy_.iallreduce(conv_.bgrad.data(), bsum.data(), conv_.bgrad.size(),
                              Datatype::kFloat, smpi::Op::kSum);
  proxy_.wait(rw);
  proxy_.wait(rb);
  conv_.wgrad = wsum;
  conv_.bgrad = bsum;

  conv_.sgd_step(lr);
  fc1_.sgd_step(lr);
  fc2_.sgd_step(lr);
  return loss;
}

// ----------------------------------------------------------- SerialTrainer ----

SerialTrainer::SerialTrainer(int in_c, int h, int w, int conv_c, int fc_hidden,
                             int fc_out)
    : conv_(in_c, conv_c, 3),
      fc1_((h - 2) / 2 * ((w - 2) / 2) * conv_c, fc_hidden),
      fc2_(fc_hidden, fc_out) {}

float SerialTrainer::train_step(const Tensor& images,
                                const std::vector<float>& targets, float lr) {
  conv_.zero_grad();
  fc1_.zero_grad();
  fc2_.zero_grad();
  Tensor c1 = conv_.forward(images);
  Tensor r1 = relu_forward(c1);
  Tensor am;
  Tensor p1 = maxpool_forward(r1, &am);
  const int batch = images.n;
  std::vector<float> h1 = fc1_.forward(p1.v, batch);
  std::vector<float> h1_act = h1;
  for (float& v : h1_act) v = std::max(0.0f, v);
  std::vector<float> pred = fc2_.forward(h1_act, batch);
  std::vector<float> dpred;
  const float loss = mse_loss(pred, targets, &dpred);
  std::vector<float> dh1 = fc2_.backward(h1_act, dpred, batch);
  for (std::size_t i = 0; i < dh1.size(); ++i) {
    if (h1[i] <= 0.0f) dh1[i] = 0.0f;
  }
  std::vector<float> dfeat = fc1_.backward(p1.v, dh1, batch);
  Tensor dp1(batch, p1.c, p1.h, p1.w);
  dp1.v = dfeat;
  Tensor dr1 = maxpool_backward(r1, am, dp1);
  Tensor dc1 = relu_backward(c1, dr1);
  conv_.backward(images, dc1);
  conv_.sgd_step(lr);
  fc1_.sgd_step(lr);
  fc2_.sgd_step(lr);
  return loss;
}

// ------------------------------------------------------------------- perf ----

namespace {

struct LayerSpec {
  const char* name;
  double params;          ///< weights (floats)
  double fwd_flops_img;   ///< forward flops per image
  double activations;     ///< output activations per image (floats)
};

// Deep-Image/VGG-class model of the paper's era (Wu et al. [35]): 13 conv
// layers grouped into 5 stages (params in floats, forward flops per image),
// plus 3 model-parallel FC layers. The large conv-gradient volume is what
// makes the data-parallel allreduce dominate at scale (paper Fig. 14).
constexpr LayerSpec kConv[] = {
    {"convA", 10.0e6, 2.6e9, 3.2e6}, {"convB", 25.0e6, 3.0e9, 1.6e6},
    {"convC", 30.0e6, 2.6e9, 0.8e6}, {"convD", 32.0e6, 2.2e9, 0.4e6},
    {"convE", 33.0e6, 1.6e9, 0.1e6},
};
constexpr LayerSpec kFc[] = {
    {"fc6", 102.8e6, 205e6, 4096},
    {"fc7", 16.8e6, 33.6e6, 4096},
    {"fc8", 4.1e6, 8.2e6, 1000},
};

constexpr int kGlobalBatch = 256;       ///< images per iteration, all ranks
constexpr int kWarmup = 1;              ///< iterations before the measured ones
constexpr double kFlopsPerNsThread = 10.0;  ///< effective conv/FC compute rate

}  // namespace

CnnPerfResult run_cnn_perf(const CnnPerfConfig& cfg) {
  const int nranks = cfg.nodes;  // one rank per node
  smpi::ClusterConfig cc;  // the default profile: xeon_fdr()
  cc.nranks = nranks;
  cc.allreduce_algo = cfg.allreduce_algo;
  cc.thread_level = core::required_thread_level(cfg.approach);
  cc.deadline = sim::Time::from_sec(36000);
  smpi::Cluster cluster(cc);

  CnnPerfResult result;
  result.ranks = nranks;

  cluster.run([&](smpi::RankCtx& rc) {
    auto proxy = core::make_proxy(cfg.approach, rc);
    proxy->start_engine();
    const int threads = proxy->compute_threads(rc.profile().cores_per_rank);
    const double rate = kFlopsPerNsThread * threads;  // flops/ns
    const double local_imgs =
        static_cast<double>(kGlobalBatch) / nranks;

    auto compute_t = [&](double flops) {
      return sim::Time(static_cast<std::int64_t>(flops / rate));
    };

    sim::Time run_start;
    // Cross-iteration gradient requests: layer l's allreduce, posted during
    // backward, is waited on only when layer l is about to run forward in
    // the NEXT iteration — the paper's overlap window (Sec. 5.3).
    constexpr int kNConv = static_cast<int>(std::size(kConv));
    std::vector<PReq> grad_req(static_cast<std::size_t>(kNConv));
    std::vector<bool> grad_pending(static_cast<std::size_t>(kNConv), false);
    auto one_iteration = [&] {
      // ---- forward: data-parallel conv layers ----
      for (int i = 0; i < kNConv; ++i) {
        if (grad_pending[static_cast<std::size_t>(i)]) {
          proxy->wait(grad_req[static_cast<std::size_t>(i)]);
          grad_pending[static_cast<std::size_t>(i)] = false;
          // SGD update of this layer's weights before using them.
          smpi::compute(sim::Time(static_cast<std::int64_t>(
              kConv[i].params * 12.0 / (rc.profile().copy_bytes_per_ns * threads))));
        }
        smpi::compute(compute_t(kConv[i].fwd_flops_img * local_imgs));
      }
      // ---- forward + backward: model-parallel FC layers (synchronous
      // all-to-alls moving activations between stages, paper Sec. 5.3) ----
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& l : kFc) {
          // Redistribute activations: each rank contributes its image shard.
          const auto bytes_per_rank = static_cast<std::size_t>(
              local_imgs * l.activations * 4.0 / nranks);
          proxy->alltoall(nullptr, nullptr, std::max<std::size_t>(bytes_per_rank, 1),
                          Datatype::kByte);
          // Whole batch through my slice of the layer (x2 flops backward).
          const double flops = 2.0 * l.params / nranks *
                               static_cast<double>(kGlobalBatch) *
                               (pass == 0 ? 1.0 : 2.0);
          smpi::compute(compute_t(flops));
        }
      }
      // ---- backward: conv layers 5..1; each layer's weight-gradient
      // allreduce is posted as soon as it is ready and left in flight until
      // that layer's next forward pass needs the updated weights. ----
      for (int i = kNConv - 1; i >= 0; --i) {
        smpi::compute(compute_t(2.0 * kConv[i].fwd_flops_img * local_imgs));
        grad_req[static_cast<std::size_t>(i)] = proxy->iallreduce(
            nullptr, nullptr, static_cast<std::size_t>(kConv[i].params),
            Datatype::kFloat, smpi::Op::kSum);
        grad_pending[static_cast<std::size_t>(i)] = true;
      }
    };
    auto drain = [&] {
      for (int i = 0; i < kNConv; ++i) {
        if (grad_pending[static_cast<std::size_t>(i)]) {
          proxy->wait(grad_req[static_cast<std::size_t>(i)]);
          grad_pending[static_cast<std::size_t>(i)] = false;
        }
      }
      proxy->barrier();
    };

    for (int i = 0; i < kWarmup; ++i) one_iteration();
    run_start = sim::now();
    for (int i = 0; i < cfg.iters; ++i) one_iteration();
    drain();
    const sim::Time run_end = sim::now();
    proxy->stop();

    if (rc.rank() == 0) {
      result.iter_ms = (run_end - run_start).ms() / cfg.iters;
      result.imgs_per_sec =
          kGlobalBatch / ((run_end - run_start).sec() / cfg.iters);
    }
  });
  return result;
}

}  // namespace cnn
