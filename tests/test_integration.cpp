// End-to-end integration tests: the full Fig. 1 pipeline on small circuits,
// checking the paper's qualitative claims at miniature scale — the
// diffusion model keeps latents retrievable, the optimized sequence is
// valid, and the runtime accounting buckets are populated.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "clo/circuits/generators.hpp"
#include "clo/core/pipeline.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo;

core::PipelineConfig tiny_config() {
  core::PipelineConfig cfg;
  cfg.dataset_size = 60;
  cfg.diffusion_steps = 40;
  cfg.diffusion_iters = 600;
  cfg.restarts = 2;
  cfg.surrogate = "cnn";  // fastest to train
  cfg.surrogate_train.epochs = 40;
  cfg.seed = 5;
  return cfg;
}

/// The weighted, normalized objective the pipeline's restarts minimize.
double objective(const core::PipelineConfig& cfg, const core::Dataset& ds,
                 const core::Qor& q) {
  return cfg.optimize.weight_area * (q.area_um2 - ds.area_mean) /
             ds.area_std +
         cfg.optimize.weight_delay * (q.delay_ps - ds.delay_mean) /
             ds.delay_std;
}

TEST(Pipeline, EndToEndProducesValidSequence) {
  core::QorEvaluator ev(circuits::make_benchmark("ctrl"));
  core::CloPipeline pipeline(tiny_config());
  const auto result = pipeline.run(ev);

  ASSERT_EQ(result.best_sequence.size(), 20u);
  EXPECT_GT(result.best.area_um2, 0.0);
  EXPECT_GT(result.original.area_um2, 0.0);
  // The retrieved latent sits essentially on the embedding manifold:
  // embeddings are 4.0 apart (distance sqrt(2d)), so < 2.0 means every
  // position decodes unambiguously.
  EXPECT_LT(result.best_discrepancy, 2.0);
  // Validated QoR must match re-evaluating the sequence.
  const auto check = ev.evaluate(result.best_sequence);
  EXPECT_DOUBLE_EQ(check.area_um2, result.best.area_um2);
  // Timing buckets.
  EXPECT_GT(result.dataset_seconds, 0.0);
  EXPECT_GT(result.surrogate_train_seconds, 0.0);
  EXPECT_GT(result.diffusion_train_seconds, 0.0);
  EXPECT_GT(result.optimize_seconds, 0.0);
  EXPECT_EQ(result.restarts.size(), 2u);
  EXPECT_EQ(result.restart_qor.size(), 2u);
}

TEST(Pipeline, OptimizedBeatsDatasetMedian) {
  // The guided search should do no worse than the middle of the random
  // dataset it was trained on (usually far better), judged on the same
  // weighted objective the optimizer minimizes.
  core::QorEvaluator ev(circuits::make_benchmark("int2float"));
  auto cfg = tiny_config();
  cfg.restarts = 3;
  core::CloPipeline pipeline(cfg);
  const auto result = pipeline.run(ev);
  auto score = [&](const core::Qor& q) {
    return objective(cfg, pipeline.dataset(), q);
  };
  std::vector<double> scores;
  for (const auto& q : pipeline.dataset().qor) scores.push_back(score(q));
  std::sort(scores.begin(), scores.end());
  EXPECT_LE(score(result.best), scores[scores.size() / 2]);
}

TEST(Pipeline, DiffusionKeepsDiscrepancyLowVsAblation) {
  // The paper's central ablation (Fig. 6/7): with the diffusion term the
  // final latents are near feasible embeddings; gradient-only drifts away.
  core::QorEvaluator ev(circuits::make_benchmark("router"));
  auto cfg = tiny_config();
  core::CloPipeline with(cfg);
  const auto rw = with.run(ev);

  auto cfg_no = tiny_config();
  cfg_no.optimize.use_diffusion = false;
  core::QorEvaluator ev2(circuits::make_benchmark("router"));
  core::CloPipeline without(cfg_no);
  const auto rn = without.run(ev2);

  double disc_with = 0.0, disc_without = 0.0;
  for (const auto& r : rw.restarts) disc_with += r.discrepancy;
  for (const auto& r : rn.restarts) disc_without += r.discrepancy;
  EXPECT_LT(disc_with, disc_without);
}

TEST(Pipeline, TrainedModelsAccessibleAfterRun) {
  core::QorEvaluator ev(circuits::make_benchmark("c17"));
  core::CloPipeline pipeline(tiny_config());
  pipeline.run(ev);
  EXPECT_NE(pipeline.embedding(), nullptr);
  EXPECT_NE(pipeline.surrogate(), nullptr);
  EXPECT_NE(pipeline.diffusion(), nullptr);
  EXPECT_EQ(pipeline.dataset().size(), 60u);
}

TEST(Pipeline, DeterministicGivenSeed) {
  auto run_once = [] {
    core::QorEvaluator ev(circuits::make_benchmark("c17"));
    core::CloPipeline pipeline(tiny_config());
    return pipeline.run(ev);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(opt::sequence_to_string(a.best_sequence),
            opt::sequence_to_string(b.best_sequence));
  EXPECT_DOUBLE_EQ(a.best.area_um2, b.best.area_um2);
}

// The reported `best` never scores worse than the unoptimized circuit on
// the restarts' own objective. c17 at the shell's `tune` defaults is a
// case where every restart's circuit is larger than the input, so the
// pipeline must hand back the input with an empty sequence.
TEST(Pipeline, BestNeverScoresWorseThanOriginal) {
  core::PipelineConfig cfg;
  cfg.dataset_size = 80;
  cfg.restarts = 2;
  cfg.diffusion_steps = 60;
  cfg.threads = 2;
  core::QorEvaluator ev(circuits::make_benchmark("c17"));
  core::CloPipeline pipeline(cfg);
  const auto result = pipeline.run(ev);
  auto score = [&](const core::Qor& q) {
    return objective(cfg, pipeline.dataset(), q);
  };
  EXPECT_LE(score(result.best), score(result.original));
  if (result.best_sequence.empty()) {
    EXPECT_EQ(result.best.area_um2, result.original.area_um2);
    EXPECT_EQ(result.best.delay_ps, result.original.delay_ps);
    EXPECT_EQ(result.best_discrepancy, 0.0);
  }
  // Every valid restart's circuit scores at least as high as the answer.
  ASSERT_EQ(result.restart_qor.size(), 2u);
  for (const auto& q : result.restart_qor) {
    EXPECT_LE(score(result.best), score(q));
  }
}

// The constructor rejects restart and dataset counts the pipeline cannot
// run, before any phase (labelling, training) starts.
TEST(Pipeline, RejectsNegativeRestarts) {
  auto cfg = tiny_config();
  cfg.restarts = -1;
  EXPECT_THROW(core::CloPipeline{cfg}, std::invalid_argument);
}

TEST(Pipeline, RejectsZeroRestarts) {
  auto cfg = tiny_config();
  cfg.restarts = 0;
  EXPECT_THROW(core::CloPipeline{cfg}, std::invalid_argument);
}

TEST(Pipeline, RejectsZeroDatasetSize) {
  auto cfg = tiny_config();
  cfg.dataset_size = 0;
  EXPECT_THROW(core::CloPipeline{cfg}, std::invalid_argument);
}

}  // namespace
