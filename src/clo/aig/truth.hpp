#pragma once
// Bit-parallel truth tables over up to 16 variables, plus the
// Minato-Morreale irredundant sum-of-products (ISOP) computation used by
// the refactoring and rewriting passes to re-synthesize cut functions.
//
// Storage: tables over at most kInlineVars = 8 variables (4 words) live
// inline in the object, so every synthesis call site (k = 4 rewrite cuts,
// refactor/resub windows of at most 8 leaves) builds, copies and combines
// tables without touching the heap. Wider tables (exhaustive PO tables,
// up to 16 variables) take a separately allocated word buffer.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace clo::aig {

/// Truth table over `num_vars` variables packed in 64-bit words
/// (bit i of the table = function value on minterm i).
class TruthTable {
 public:
  static constexpr int kMaxVars = 16;
  static constexpr int kInlineVars = 8;
  static constexpr std::size_t kInlineWords = std::size_t{1}
                                              << (kInlineVars - 6);

  TruthTable() = default;
  explicit TruthTable(int num_vars);
  TruthTable(const TruthTable& o) : num_vars_(o.num_vars_) {
    if (o.heap_) {
      heap_ = std::make_unique<std::uint64_t[]>(o.num_words());
      std::copy_n(o.heap_.get(), o.num_words(), heap_.get());
    } else {
      std::copy_n(o.inline_, kInlineWords, inline_);
    }
  }
  TruthTable(TruthTable&& o) noexcept
      : num_vars_(o.num_vars_), heap_(std::move(o.heap_)) {
    std::copy_n(o.inline_, kInlineWords, inline_);
    o.num_vars_ = 0;
    o.inline_[0] = 0;
  }
  TruthTable& operator=(const TruthTable& o);
  TruthTable& operator=(TruthTable&& o) noexcept;
  ~TruthTable() = default;

  static TruthTable constant(int num_vars, bool value);
  /// Elementary table of variable `var` over `num_vars` variables.
  static TruthTable variable(int num_vars, int var);

  int num_vars() const { return num_vars_; }
  std::size_t num_bits() const { return std::size_t{1} << num_vars_; }
  std::size_t num_words() const {
    return num_vars_ <= 6 ? 1 : std::size_t{1} << (num_vars_ - 6);
  }
  std::span<const std::uint64_t> words() const { return {data(), num_words()}; }

  bool get_bit(std::size_t i) const {
    return (data()[i >> 6] >> (i & 63)) & 1u;
  }
  void set_bit(std::size_t i, bool v);

  bool is_const0() const;
  bool is_const1() const;
  int count_ones() const;

  /// True if the function depends on variable `var`.
  bool has_var(int var) const;

  TruthTable operator~() const {
    TruthTable t(*this);
    std::uint64_t* w = t.data();
    for (std::size_t i = 0, n = num_words(); i < n; ++i) w[i] = ~w[i];
    t.mask_tail();
    return t;
  }
  TruthTable operator&(const TruthTable& o) const {
    TruthTable t(*this);
    t &= o;
    return t;
  }
  TruthTable operator|(const TruthTable& o) const {
    TruthTable t(*this);
    t |= o;
    return t;
  }
  TruthTable operator^(const TruthTable& o) const {
    TruthTable t(*this);
    t ^= o;
    return t;
  }
  TruthTable& operator&=(const TruthTable& o) {
    std::uint64_t* w = data();
    const std::uint64_t* v = o.data();
    for (std::size_t i = 0, n = num_words(); i < n; ++i) w[i] &= v[i];
    return *this;
  }
  TruthTable& operator|=(const TruthTable& o) {
    std::uint64_t* w = data();
    const std::uint64_t* v = o.data();
    for (std::size_t i = 0, n = num_words(); i < n; ++i) w[i] |= v[i];
    return *this;
  }
  TruthTable& operator^=(const TruthTable& o) {
    std::uint64_t* w = data();
    const std::uint64_t* v = o.data();
    for (std::size_t i = 0, n = num_words(); i < n; ++i) w[i] ^= v[i];
    return *this;
  }
  bool operator==(const TruthTable& o) const {
    if (num_vars_ != o.num_vars_) return false;
    const std::uint64_t* w = data();
    const std::uint64_t* v = o.data();
    for (std::size_t i = 0, n = num_words(); i < n; ++i) {
      if (w[i] != v[i]) return false;
    }
    return true;
  }
  bool operator!=(const TruthTable& o) const { return !(*this == o); }

  /// True if this table equals the complement of `o` (same as
  /// `*this == ~o`, without building the complement).
  bool is_complement_of(const TruthTable& o) const;

  /// Negative / positive cofactor w.r.t. `var` (result keeps num_vars).
  TruthTable cofactor0(int var) const;
  TruthTable cofactor1(int var) const;

  /// Binary string, minterm 2^n-1 first (matches ABC's print style).
  std::string to_binary_string() const;

  /// 16-bit value for 4-variable tables (requires num_vars <= 4).
  std::uint16_t to_u16() const;
  static TruthTable from_u16(std::uint16_t bits, int num_vars = 4);

 private:
  const std::uint64_t* data() const { return heap_ ? heap_.get() : inline_; }
  std::uint64_t* data() { return heap_ ? heap_.get() : inline_; }
  /// Bits of a word that hold minterms (all of them from 6 vars up).
  std::uint64_t tail_mask() const {
    return num_vars_ < 6 ? (1ULL << (std::size_t{1} << num_vars_)) - 1
                         : ~0ULL;
  }
  void mask_tail() { inline_[0] &= tail_mask(); }

  int num_vars_ = 0;
  std::uint64_t inline_[kInlineWords] = {};
  /// Word buffer of tables over more than kInlineVars variables (null
  /// otherwise).
  std::unique_ptr<std::uint64_t[]> heap_;
};

/// A product term: `mask` marks participating variables, `polarity` their
/// phase (bit set = positive literal). Cube value = AND of literals.
struct Cube {
  std::uint32_t mask = 0;
  std::uint32_t polarity = 0;
  int num_literals() const { return __builtin_popcount(mask); }
};

/// Minato-Morreale ISOP: irredundant SOP covering exactly `on` (ISOP of the
/// completely specified function when on == don't-care bound).
/// Returns cubes whose OR equals `on`.
std::vector<Cube> isop(const TruthTable& on);

/// Same cover as isop(on), written into `out` (cleared first) so callers
/// can reuse one buffer across calls.
void isop(const TruthTable& on, std::vector<Cube>& out);

/// Evaluate a cube list back to a truth table (testing helper).
TruthTable eval_sop(std::span<const Cube> cubes, int num_vars);

/// Total literal count of an SOP.
int sop_literals(std::span<const Cube> cubes);

}  // namespace clo::aig
