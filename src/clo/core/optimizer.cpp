#include "clo/core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "clo/nn/ops.hpp"
#include "clo/util/fault.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/thread_pool.hpp"
#include "clo/util/timer.hpp"

namespace clo::core {

using nn::Tensor;

namespace {

/// Clip a gradient to L2 norm `max_norm` — keeps the guidance term
/// well-scaled vs the noise term. Applied per row (per restart), so
/// batching cannot change the clip.
void clip_gradient(std::vector<float>* grad, double max_norm) {
  double norm2 = 0.0;
  for (float g : *grad) norm2 += static_cast<double>(g) * g;
  const double norm = std::sqrt(norm2);
  if (norm > max_norm && norm > 0.0) {
    const float s = static_cast<float>(max_norm / norm);
    for (auto& g : *grad) g *= s;
  }
}

/// Clears ContinuousOptimizer::progress_ on scope exit so the borrowed
/// stack reporter can never dangle, even when a restart throws.
struct ProgressInstall {
  obs::Progress** slot;
  ProgressInstall(obs::Progress** s, obs::Progress* p) : slot(s) {
    *slot = p;
  }
  ~ProgressInstall() { *slot = nullptr; }
  ProgressInstall(const ProgressInstall&) = delete;
  ProgressInstall& operator=(const ProgressInstall&) = delete;
};

/// Same discipline for the borrowed cancellation token.
struct CancelInstall {
  const util::CancelToken** slot;
  CancelInstall(const util::CancelToken** s, const util::CancelToken* t)
      : slot(s) {
    *slot = t;
  }
  ~CancelInstall() { *slot = nullptr; }
  CancelInstall(const CancelInstall&) = delete;
  CancelInstall& operator=(const CancelInstall&) = delete;
};

/// The non-finite-latent guard: a NaN/Inf latent would silently decode to
/// a garbage nearest-embedding sequence, so surface it as a failure that
/// run_restarts can retry instead.
void check_latent_finite(const std::vector<float>& x) {
  for (float v : x) {
    if (!std::isfinite(v)) {
      throw std::runtime_error("optimizer: non-finite latent after denoising");
    }
  }
}

}  // namespace

ContinuousOptimizer::ContinuousOptimizer(
    models::SurrogateModel& surrogate, models::DiffusionModel& diffusion,
    const models::TransformEmbedding& embedding, OptimizeParams params)
    : surrogate_(surrogate), diffusion_(diffusion), embedding_(embedding),
      params_(params) {}

double ContinuousOptimizer::objective_and_grad(const std::vector<float>& x,
                                               std::vector<float>* grad) {
  if (grad == nullptr) {
    // Inference-only query: no autograd graph at all. (The old path built
    // and retained the full graph just to read one scalar.)
    nn::NoGradGuard no_grad;
    Tensor input = Tensor::from_data({1, static_cast<int>(x.size())}, x);
    auto out = surrogate_.forward(input);
    Tensor objective =
        nn::add(nn::scale(out.area, static_cast<float>(params_.weight_area)),
                nn::scale(out.delay, static_cast<float>(params_.weight_delay)));
    return objective.item();
  }
  Tensor input = Tensor::from_data(
      {1, static_cast<int>(x.size())}, x, /*requires_grad=*/true);
  auto out = surrogate_.forward(input);
  Tensor objective =
      nn::add(nn::scale(out.area, static_cast<float>(params_.weight_area)),
              nn::scale(out.delay, static_cast<float>(params_.weight_delay)));
  nn::backward(objective);
  grad->assign(input.grad().begin(), input.grad().end());
  clip_gradient(grad, params_.grad_clip);
  return objective.item();
}

std::vector<double> ContinuousOptimizer::objective_and_grad_batch(
    const std::vector<std::vector<float>>& xs,
    std::vector<std::vector<float>>* grads) {
  if (xs.empty()) return {};
  const int R = static_cast<int>(xs.size());
  const int n = static_cast<int>(xs[0].size());
  std::vector<float> stacked;
  stacked.reserve(static_cast<std::size_t>(R) * n);
  for (const auto& x : xs) stacked.insert(stacked.end(), x.begin(), x.end());
  const float wa = static_cast<float>(params_.weight_area);
  const float wd = static_cast<float>(params_.weight_delay);

  if (grads == nullptr) {
    nn::NoGradGuard no_grad;
    Tensor input = Tensor::from_data({R, n}, std::move(stacked));
    auto out = surrogate_.forward(input);
    std::vector<double> objs(R);
    for (int r = 0; r < R; ++r) {
      objs[r] = wa * out.area.data()[r] + wd * out.delay.data()[r];
    }
    return objs;
  }

  Tensor input =
      Tensor::from_data({R, n}, std::move(stacked), /*requires_grad=*/true);
  auto out = surrogate_.forward(input);
  // Per-row objective values with the same float arithmetic as
  // objective_and_grad's objective tensor (wa*area then + wd*delay).
  std::vector<double> objs(R);
  for (int r = 0; r < R; ++r) {
    objs[r] = wa * out.area.data()[r] + wd * out.delay.data()[r];
  }
  // One backward from the sum of row objectives. Rows are independent
  // (no op mixes batch rows), so each input row's gradient equals its own
  // single-restart gradient: the sum merely seeds every row with the same
  // d(total)/d(row objective) = 1.
  Tensor total = nn::add(nn::scale(nn::sum_all(out.area), wa),
                         nn::scale(nn::sum_all(out.delay), wd));
  nn::backward(total);
  const auto& g = input.grad();
  grads->assign(R, std::vector<float>(n));
  for (int r = 0; r < R; ++r) {
    std::copy(g.begin() + static_cast<std::ptrdiff_t>(r) * n,
              g.begin() + static_cast<std::ptrdiff_t>(r + 1) * n,
              (*grads)[r].begin());
    clip_gradient(&(*grads)[r], params_.grad_clip);
  }
  return objs;
}

std::size_t ContinuousOptimizer::noise_count() const {
  const auto& cfg = diffusion_.config();
  const std::size_t elems =
      static_cast<std::size_t>(cfg.seq_len) * cfg.embed_dim;
  if (!params_.use_diffusion) return elems;
  return elems * diffusion_.schedule().num_steps();
}

void ContinuousOptimizer::run_impl_batch(const std::vector<float>* noise,
                                         std::size_t rows,
                                         OptimizeResult* results) {
  CLO_TRACE_SPAN("optimize.batch");
  Stopwatch watch;
  watch.start();
  const auto& cfg = diffusion_.config();
  const int L = cfg.seq_len, d = cfg.embed_dim;
  const auto& sched = diffusion_.schedule();
  const int T = sched.num_steps();
  const std::size_t R = rows;
  const std::size_t elems = static_cast<std::size_t>(L) * d;

  std::vector<std::vector<float>> x(R, std::vector<float>(elems));
  std::vector<std::size_t> cursor(R, elems);
  for (std::size_t r = 0; r < R; ++r) {
    CLO_FAULT_POINT("optimizer.restart");
    std::copy(noise[r].begin(), noise[r].begin() + elems, x[r].begin());
    if (CLO_FAULT_FIRED("optimizer.latent_nan")) {
      x[r][0] = std::numeric_limits<float>::quiet_NaN();
    }
  }

  std::vector<std::vector<float>> grads;
  std::vector<std::vector<OptimizeTracePoint>> traces(R);

  if (!params_.use_diffusion) {
    // Eq. 14 in lockstep: one [R, L*d] surrogate forward+backward per step.
    for (int t = T - 1; t >= 0; --t) {
      CLO_TRACE_SPAN("optimize.step");
      CLO_OBS_COUNT("optimizer.denoise_steps", R);
      if (progress_ != nullptr) progress_->tick(R);
      if (cancel_ != nullptr) cancel_->check();
      const auto objs = objective_and_grad_batch(x, &grads);
      const float step =
          static_cast<float>(params_.ablation_step * params_.omega);
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t i = 0; i < elems; ++i) x[r][i] -= step * grads[r][i];
      }
      if (t % std::max(1, T / 16) == 0 || t == 0) {
        const auto disc = embedding_.discrepancy_batch(x, L);
        for (std::size_t r = 0; r < R; ++r) {
          traces[r].push_back({t, disc[r], objs[r]});
        }
      }
    }
  } else {
    // Eq. 13 in lockstep: one [R, d, L] U-Net forward and one [R, L*d]
    // surrogate forward+backward per denoising step, shared by every
    // restart; the per-restart update reads only its own row.
    std::vector<std::vector<float>> x_hat(R, std::vector<float>(elems));
    for (int t = T - 1; t >= 0; --t) {
      CLO_TRACE_SPAN("optimize.step");
      CLO_OBS_COUNT("optimizer.denoise_steps", R);
      if (progress_ != nullptr) progress_->tick(R);
      if (cancel_ != nullptr) cancel_->check();
      const auto eps = diffusion_.predict_noise_batch(x, t);
      const float ab = sched.alpha_bar(t);
      const float sqrt_ab = std::sqrt(ab);
      const float sqrt_1mab = std::sqrt(1.0f - ab);
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t i = 0; i < elems; ++i) {
          x_hat[r][i] = (x[r][i] - sqrt_1mab * eps[r][i]) / sqrt_ab;
        }
      }
      const auto objs = objective_and_grad_batch(x_hat, &grads);
      const float c0 = sched.coef_x0(t);
      const float ct = sched.coef_xt(t);
      const double omega_t =
          params_.guidance_ramp
              ? params_.omega * (1.0 - static_cast<double>(t) / T)
              : params_.omega;
      const float guide = static_cast<float>(omega_t) * sqrt_1mab;
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t i = 0; i < elems; ++i) {
          const float eps_tilde = eps[r][i] + guide * grads[r][i];
          float x0 = (x[r][i] - sqrt_1mab * eps_tilde) / sqrt_ab;
          x0 = std::min(3.0f, std::max(-3.0f, x0));
          x[r][i] = c0 * x0 + ct * x[r][i];
          if (t > 0) {
            x[r][i] += sched.sigma(t) * noise[r][cursor[r]++];
          }
        }
      }
      if (t % std::max(1, T / 16) == 0 || t == 0) {
        const auto disc = embedding_.discrepancy_batch(x, L);
        for (std::size_t r = 0; r < R; ++r) {
          traces[r].push_back({t, disc[r], objs[r]});
        }
      }
    }
  }

  // A single poisoned row cannot contaminate its neighbors (no nn op mixes
  // batch rows), but it must still abort the chunk: run_restarts re-runs
  // the chunk's restarts one row at a time to sort good from bad.
  for (std::size_t r = 0; r < R; ++r) check_latent_finite(x[r]);

  // Batched finalize: one table scan retrieves sequence + discrepancy,
  // one inference-only surrogate forward predicts every restart's F̂.
  std::vector<double> disc;
  auto seqs = embedding_.retrieve_batch(x, L, &disc);
  const auto preds = objective_and_grad_batch(x, nullptr);
  watch.stop();
  // Lockstep restarts share the wall clock; attribute an equal slice to
  // each so that summing per-restart seconds still yields the batch's
  // total wall time (the Fig. 5 accounting).
  const double per_run_seconds = watch.seconds() / static_cast<double>(R);
  for (std::size_t r = 0; r < R; ++r) {
    OptimizeResult& res = results[r];
    res.latent = std::move(x[r]);
    res.sequence = std::move(seqs[r]);
    res.discrepancy = disc[r];
    res.predicted_objective = preds[r];
    res.trace = std::move(traces[r]);
    res.seconds = per_run_seconds;
    CLO_OBS_OBSERVE("optimizer.discrepancy", res.discrepancy);
    CLO_OBS_OBSERVE("optimizer.predicted_objective",
                    res.predicted_objective);
    CLO_OBS_OBSERVE("optimizer.restart_seconds", res.seconds);
  }
}

std::vector<OptimizeResult> ContinuousOptimizer::run_restarts(
    clo::Rng& rng, int count, util::ThreadPool* pool,
    std::vector<RestartFailure>* failures, const util::CancelToken* cancel) {
  // Pre-draw every Gaussian serially, restart by restart (including the
  // Box-Muller cache carried across restarts), so each trajectory is a
  // pure function of its latent index at any worker count. The retry Rngs
  // are forked only afterwards: they advance the caller's stream but touch
  // nothing pre-sampled, so they are invisible unless a retry happens.
  const std::size_t per_run = noise_count();
  std::vector<std::vector<float>> noise(count);
  for (int r = 0; r < count; ++r) {
    noise[r].resize(per_run);
    for (auto& v : noise[r]) v = static_cast<float>(rng.next_gaussian());
  }
  std::vector<clo::Rng> retry_rng;
  retry_rng.reserve(count);
  for (int r = 0; r < count; ++r) retry_rng.push_back(rng.fork());

  // Restarts only read the model weights; freeze them so the backward
  // passes in objective_and_grad_batch never touch shared grad buffers
  // (neither concurrently across workers nor cumulatively across steps).
  auto frozen_params = surrogate_.parameters();
  {
    auto dp = diffusion_.unet().parameters();
    frozen_params.insert(frozen_params.end(), dp.begin(), dp.end());
  }
  nn::GradFreeze freeze(frozen_params);
  obs::Progress progress(
      "optimize", static_cast<std::uint64_t>(
                      diffusion_.schedule().num_steps()) *
                      static_cast<std::uint64_t>(count > 0 ? count : 0));
  ProgressInstall install(&progress_, &progress);
  CancelInstall cancel_install(&cancel_, cancel);

  std::vector<OptimizeResult> results(count);
  std::vector<char> pending(count, 0);
  // One lockstep chunk per worker. Chunk composition cannot change the
  // numbers: no nn op mixes batch rows, so each restart's trajectory is the
  // same in any chunking, including the single-chunk serial path and the
  // one-row re-runs below.
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(workers, static_cast<std::size_t>(count)));
  const auto chunk_bounds = [&](std::size_t c) {
    return std::pair{c * static_cast<std::size_t>(count) / chunks,
                     (c + 1) * static_cast<std::size_t>(count) / chunks};
  };
  const auto chunk_errors =
      util::parallel_for_collect(pool, chunks, [&](std::size_t c) {
        const auto [lo, hi] = chunk_bounds(c);
        if (lo < hi) {
          run_impl_batch(noise.data() + lo, hi - lo, results.data() + lo);
        }
      });
  // A chunk failure poisons every restart sharing the chunk; most are
  // innocent and recover bit-identically in the one-row pass below.
  for (const auto& e : chunk_errors) {
    const auto [lo, hi] = chunk_bounds(e.index);
    for (std::size_t r = lo; r < hi; ++r) pending[r] = 1;
  }

  // Cancellation bypasses recovery entirely: the parallel pass above may
  // have marked every restart pending (each worker threw CancelledError),
  // and retrying/quarantining them would fabricate an all-quarantined
  // "result" that a caller could cache. Surface the cancellation instead.
  if (cancel != nullptr) cancel->check();

  // Serial recovery, one row at a time: original noise first (recovers
  // chunk neighbors and one-shot faults without changing any trajectory),
  // then one fresh-noise retry from the restart's own pre-forked Rng (the
  // escape hatch for a latent that deterministically goes non-finite).
  // Still failing -> quarantine.
  for (int r = 0; r < count; ++r) {
    if (!pending[r]) continue;
    try {
      run_impl_batch(&noise[r], 1, &results[r]);
      continue;
    } catch (const util::CancelledError&) {
      throw;  // never quarantine a cancellation
    } catch (const std::exception&) {
      // Fall through to the fresh-noise retry.
    }
    try {
      std::vector<float> fresh(per_run);
      for (auto& v : fresh) {
        v = static_cast<float>(retry_rng[r].next_gaussian());
      }
      run_impl_batch(&fresh, 1, &results[r]);
      CLO_OBS_COUNT("optimizer.restart_retries", 1);
    } catch (const util::CancelledError&) {
      throw;  // never quarantine a cancellation
    } catch (const std::exception& e) {
      results[r] = OptimizeResult{};
      if (failures != nullptr) {
        failures->push_back({static_cast<std::size_t>(r), e.what()});
      }
      CLO_OBS_COUNT("optimizer.quarantined_restarts", 1);
    }
  }
  return results;
}

}  // namespace clo::core
