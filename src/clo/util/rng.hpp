#pragma once
// Deterministic pseudo-random number generation for the whole project.
//
// Everything that consumes randomness (dataset sampling, model init, DDPM
// noise, baseline explorers) takes an explicit Rng so runs are reproducible
// from a single seed. The generator is xoshiro256**, seeded via splitmix64.

#include <cstdint>
#include <vector>

namespace clo {

/// Small, fast, high-quality PRNG (xoshiro256**) with explicit seeding.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit word.
  std::uint64_t next_u64();

  /// Uniform in [0, n). Requires n > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int next_int(int lo, int hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform float in [0, 1).
  float next_float();

  /// Standard normal variate (Box-Muller, cached second value).
  double next_gaussian();

  /// Bernoulli draw with probability p of true.
  bool next_bool(double p = 0.5);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for parallel/submodule use).
  Rng fork();

  /// Full generator state (xoshiro words + the Box-Muller cache), for
  /// checkpoint/resume: restoring a snapshot replays the exact draw
  /// stream from that point.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    double cached_gaussian = 0.0;
    bool has_cached_gaussian = false;
  };
  State state() const;
  /// Throws std::invalid_argument on the all-zero xoshiro state, which the
  /// generator can never leave (no State from state() is all-zero).
  void set_state(const State& state);

 private:
  std::uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace clo
