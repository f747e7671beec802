#include "clo/aig/truth.hpp"

#include <bit>
#include <stdexcept>

namespace clo::aig {
namespace {

// Repeating patterns for variables 0..5 within a 64-bit word.
constexpr std::uint64_t kVarMasks[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};

}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("TruthTable supports 0..16 variables");
  }
  if (num_vars > kInlineVars) {
    heap_ = std::make_unique<std::uint64_t[]>(num_words());  // zeroed
  }
}

TruthTable& TruthTable::operator=(const TruthTable& o) {
  if (this == &o) return *this;
  if (!o.heap_) {
    heap_.reset();
    std::copy_n(o.inline_, kInlineWords, inline_);
  } else {
    if (!heap_ || num_words() != o.num_words()) {
      heap_ = std::make_unique<std::uint64_t[]>(o.num_words());
    }
    std::copy_n(o.heap_.get(), o.num_words(), heap_.get());
  }
  num_vars_ = o.num_vars_;
  return *this;
}

TruthTable& TruthTable::operator=(TruthTable&& o) noexcept {
  if (this == &o) return *this;
  num_vars_ = o.num_vars_;
  heap_ = std::move(o.heap_);
  std::copy_n(o.inline_, kInlineWords, inline_);
  o.num_vars_ = 0;
  o.inline_[0] = 0;
  return *this;
}

TruthTable TruthTable::constant(int num_vars, bool value) {
  TruthTable t(num_vars);
  if (value) {
    std::fill_n(t.data(), t.num_words(), ~0ULL);
    t.mask_tail();
  }
  return t;
}

TruthTable TruthTable::variable(int num_vars, int var) {
  TruthTable t(num_vars);
  if (var < 0 || var >= num_vars) {
    throw std::invalid_argument("variable index out of range");
  }
  std::uint64_t* w = t.data();
  const std::size_t n = t.num_words();
  if (var < 6) {
    std::fill_n(w, n, kVarMasks[var]);
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < n; ++i) {
      if ((i / stride) & 1) w[i] = ~0ULL;
    }
  }
  t.mask_tail();
  return t;
}

void TruthTable::set_bit(std::size_t i, bool v) {
  if (v) {
    data()[i >> 6] |= 1ULL << (i & 63);
  } else {
    data()[i >> 6] &= ~(1ULL << (i & 63));
  }
}

bool TruthTable::is_const0() const {
  for (std::uint64_t w : words()) {
    if (w) return false;
  }
  return true;
}

bool TruthTable::is_const1() const {
  const std::uint64_t all = tail_mask();
  for (std::uint64_t w : words()) {
    if ((w & all) != all) return false;
  }
  return true;
}

int TruthTable::count_ones() const {
  int c = 0;
  for (std::uint64_t w : words()) c += std::popcount(w);
  return c;
}

bool TruthTable::has_var(int var) const {
  const std::uint64_t* w = data();
  const std::size_t n = num_words();
  if (var < 6) {
    const int shift = 1 << var;
    for (std::size_t i = 0; i < n; ++i) {
      if (((w[i] >> shift) ^ w[i]) & ~kVarMasks[var]) return true;
    }
    return false;
  }
  const std::size_t stride = std::size_t{1} << (var - 6);
  for (std::size_t i = 0; i < n; ++i) {
    if (((i / stride) & 1) && w[i] != w[i - stride]) return true;
  }
  return false;
}

bool TruthTable::is_complement_of(const TruthTable& o) const {
  if (num_vars_ != o.num_vars_) return false;
  const std::uint64_t all = tail_mask();
  const std::uint64_t* w = data();
  const std::uint64_t* v = o.data();
  for (std::size_t i = 0, n = num_words(); i < n; ++i) {
    if ((w[i] ^ v[i]) != all) return false;
  }
  return true;
}

TruthTable TruthTable::cofactor0(int var) const {
  TruthTable t(*this);
  std::uint64_t* w = t.data();
  const std::size_t n = num_words();
  if (var < 6) {
    const int shift = 1 << var;
    for (std::size_t i = 0; i < n; ++i) {
      w[i] &= ~kVarMasks[var];
      w[i] |= w[i] << shift;
    }
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < n; ++i) {
      if ((i / stride) & 1) w[i] = w[i - stride];
    }
  }
  return t;
}

TruthTable TruthTable::cofactor1(int var) const {
  TruthTable t(*this);
  std::uint64_t* w = t.data();
  const std::size_t n = num_words();
  if (var < 6) {
    const int shift = 1 << var;
    for (std::size_t i = 0; i < n; ++i) {
      w[i] &= kVarMasks[var];
      w[i] |= w[i] >> shift;
    }
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < n; ++i) {
      if (!((i / stride) & 1)) w[i] = w[i + stride];
    }
  }
  return t;
}

std::string TruthTable::to_binary_string() const {
  std::string s;
  s.reserve(num_bits());
  for (std::size_t i = num_bits(); i-- > 0;) s += get_bit(i) ? '1' : '0';
  return s;
}

std::uint16_t TruthTable::to_u16() const {
  if (num_vars_ > 4) throw std::logic_error("to_u16 requires <=4 vars");
  std::uint64_t w = inline_[0];
  // Replicate smaller tables up to 16 bits for canonical comparison.
  for (int v = num_vars_; v < 4; ++v) w |= w << (1 << v);
  return static_cast<std::uint16_t>(w & 0xffff);
}

TruthTable TruthTable::from_u16(std::uint16_t bits, int num_vars) {
  TruthTable t(num_vars);
  t.data()[0] = bits;
  t.mask_tail();
  return t;
}

namespace {

// Recursive Minato-Morreale over an interval of don't cares: appends to
// `out` an irredundant cover F with on_min <= F <= on_max, in the order
// cover(!v part), cover(v part), cover(remainder).
void isop_rec(const TruthTable& on_min, const TruthTable& on_max, int var,
              std::vector<Cube>& out) {
  if (on_min.is_const0()) return;
  if (on_max.is_const1()) {
    out.push_back(Cube{});  // single empty cube = const1
    return;
  }
  // Find the topmost variable either bound depends on.
  int v = var;
  while (v >= 0 && !on_min.has_var(v) && !on_max.has_var(v)) --v;
  if (v < 0) {
    // Bounds are constants: on_min != 0 was handled, so on_min == const1
    // would have forced on_max == const1. Unreachable, but be safe.
    out.push_back(Cube{});
    return;
  }
  const TruthTable min0 = on_min.cofactor0(v);
  const TruthTable min1 = on_min.cofactor1(v);
  const TruthTable max0 = on_max.cofactor0(v);
  const TruthTable max1 = on_max.cofactor1(v);

  // Part of ON-set that must be covered with literal !v / v.
  const std::size_t begin0 = out.size();
  isop_rec(min0 & ~max1, max0, v - 1, out);
  const std::size_t begin1 = out.size();
  isop_rec(min1 & ~max0, max1, v - 1, out);
  const std::size_t end1 = out.size();

  const std::span<const Cube> cover0(out.data() + begin0, begin1 - begin0);
  const std::span<const Cube> cover1(out.data() + begin1, end1 - begin1);
  TruthTable rem = min0 & ~eval_sop(cover0, on_min.num_vars());
  rem |= min1 & ~eval_sop(cover1, on_min.num_vars());
  // Remainder must be covered without referencing v.
  isop_rec(rem, max0 & max1, v - 1, out);

  for (std::size_t i = begin0; i < begin1; ++i) {
    out[i].mask |= 1u << v;  // add literal !v (polarity 0)
  }
  for (std::size_t i = begin1; i < end1; ++i) {
    out[i].mask |= 1u << v;
    out[i].polarity |= 1u << v;
  }
}

}  // namespace

void isop(const TruthTable& on, std::vector<Cube>& out) {
  out.clear();
  isop_rec(on, on, on.num_vars() - 1, out);
}

std::vector<Cube> isop(const TruthTable& on) {
  std::vector<Cube> cubes;
  isop(on, cubes);
  return cubes;
}

TruthTable eval_sop(std::span<const Cube> cubes, int num_vars) {
  TruthTable result = TruthTable::constant(num_vars, false);
  for (const Cube& c : cubes) {
    TruthTable term = TruthTable::constant(num_vars, true);
    for (int v = 0; v < num_vars; ++v) {
      if (!(c.mask & (1u << v))) continue;
      const TruthTable tv = TruthTable::variable(num_vars, v);
      term &= (c.polarity & (1u << v)) ? tv : ~tv;
    }
    result |= term;
  }
  return result;
}

int sop_literals(std::span<const Cube> cubes) {
  int n = 0;
  for (const Cube& c : cubes) n += c.num_literals();
  return n;
}

}  // namespace clo::aig
