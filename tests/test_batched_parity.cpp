// Parity acceptance tests for the batched inference path: stacking R
// latents into one [R, d, L] U-Net forward / one [R, L*d] surrogate
// forward+backward must reproduce the single-sample reference results
// (predict_noise, objective_and_grad). No op in either
// network mixes batch rows, so the batched numbers are expected to be
// bit-identical; the assertions still allow a small float tolerance (the
// documented contract) so they stay valid if a future op reassociates
// per-row arithmetic.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "clo/circuits/generators.hpp"
#include "clo/core/optimizer.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/models/embedding.hpp"
#include "clo/models/surrogate.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;

constexpr float kTol = 1e-5f;

std::vector<std::vector<float>> random_latents(int count, std::size_t size,
                                               std::uint64_t seed) {
  clo::Rng rng(seed);
  std::vector<std::vector<float>> xs(count, std::vector<float>(size));
  for (auto& x : xs) {
    for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  }
  return xs;
}

TEST(BatchedParity, PredictNoiseBatchMatchesPerSample) {
  clo::Rng rng(11);
  models::DiffusionConfig cfg;
  cfg.seq_len = 8;
  cfg.embed_dim = 4;
  cfg.channels = 8;
  cfg.num_steps = 12;
  models::DiffusionModel model(cfg, rng);
  const auto xs = random_latents(
      5, static_cast<std::size_t>(cfg.seq_len) * cfg.embed_dim, 21);

  for (const int t : {0, 5, cfg.num_steps - 1}) {
    const auto batched = model.predict_noise_batch(xs, t);
    ASSERT_EQ(batched.size(), xs.size());
    for (std::size_t r = 0; r < xs.size(); ++r) {
      const auto single = model.predict_noise(xs[r], t);
      ASSERT_EQ(batched[r].size(), single.size());
      for (std::size_t i = 0; i < single.size(); ++i) {
        EXPECT_NEAR(batched[r][i], single[i], kTol)
            << "t=" << t << " restart " << r << " elem " << i;
      }
    }
  }
}

TEST(BatchedParity, ObjectiveAndGradBatchMatchesPerSample) {
  const aig::Aig g = circuits::make_benchmark("c17");
  clo::Rng rng(5);
  models::TransformEmbedding embedding(8, rng);
  models::SurrogateConfig scfg;
  scfg.seq_len = 8;
  auto surrogate = models::make_surrogate("cnn", g, scfg, rng);
  models::DiffusionConfig dcfg;
  dcfg.seq_len = 8;
  dcfg.num_steps = 16;
  models::DiffusionModel diffusion(dcfg, rng);
  core::ContinuousOptimizer optimizer(*surrogate, diffusion, embedding);

  const auto xs = random_latents(
      6, static_cast<std::size_t>(dcfg.seq_len) * dcfg.embed_dim, 33);

  std::vector<std::vector<float>> batched_grads;
  const auto batched = optimizer.objective_and_grad_batch(xs, &batched_grads);
  const auto batched_nograd = optimizer.objective_and_grad_batch(xs, nullptr);
  ASSERT_EQ(batched.size(), xs.size());
  ASSERT_EQ(batched_grads.size(), xs.size());
  ASSERT_EQ(batched_nograd.size(), xs.size());

  for (std::size_t r = 0; r < xs.size(); ++r) {
    std::vector<float> grad;
    const double obj = optimizer.objective_and_grad(xs[r], &grad);
    EXPECT_NEAR(batched[r], obj, kTol) << "restart " << r;
    EXPECT_NEAR(batched_nograd[r], obj, kTol) << "restart " << r;
    ASSERT_EQ(batched_grads[r].size(), grad.size());
    for (std::size_t i = 0; i < grad.size(); ++i) {
      EXPECT_NEAR(batched_grads[r][i], grad[i], kTol)
          << "restart " << r << " elem " << i;
    }
    // The inference-only path must also match the with-grad objective.
    EXPECT_NEAR(optimizer.objective_and_grad(xs[r], nullptr), obj, kTol);
  }
}

}  // namespace
