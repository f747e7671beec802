#include "clo/util/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace clo {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // Avoid the all-zero state, which xoshiro cannot leave.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  // Lemire's nearly-divisionless method with rejection for exactness.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    std::uint64_t threshold = -n % n;
    while (l < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

int Rng::next_int(int lo, int hi) {
  return lo + static_cast<int>(next_below(
                  static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float Rng::next_float() {
  return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
}

double Rng::next_gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 1e-300);
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

bool Rng::next_bool(double p) { return next_double() < p; }

Rng Rng::fork() { return Rng(next_u64() ^ 0xa02bdbf7bb3c0a7ULL); }

Rng::State Rng::state() const {
  State st;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  st.cached_gaussian = cached_gaussian_;
  st.has_cached_gaussian = has_cached_gaussian_;
  return st;
}

void Rng::set_state(const State& state) {
  if ((state.s[0] | state.s[1] | state.s[2] | state.s[3]) == 0) {
    throw std::invalid_argument("Rng::set_state: all-zero state");
  }
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  cached_gaussian_ = state.cached_gaussian;
  has_cached_gaussian_ = state.has_cached_gaussian;
}

}  // namespace clo
