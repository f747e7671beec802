#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "clo/aig/truth.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo::aig;

TEST(TruthTable, ConstantsAndVariables) {
  const auto c0 = TruthTable::constant(3, false);
  const auto c1 = TruthTable::constant(3, true);
  EXPECT_TRUE(c0.is_const0());
  EXPECT_TRUE(c1.is_const1());
  EXPECT_EQ(c1.count_ones(), 8);
  for (int v = 0; v < 3; ++v) {
    const auto x = TruthTable::variable(3, v);
    EXPECT_EQ(x.count_ones(), 4);
    for (int m = 0; m < 8; ++m) {
      EXPECT_EQ(x.get_bit(m), static_cast<bool>((m >> v) & 1));
    }
  }
}

TEST(TruthTable, VariablesAboveWordBoundary) {
  // 8 variables -> 4 words; check variables 6 and 7 (word-stride regime).
  for (int v : {6, 7}) {
    const auto x = TruthTable::variable(8, v);
    for (int m = 0; m < 256; m += 7) {
      EXPECT_EQ(x.get_bit(m), static_cast<bool>((m >> v) & 1));
    }
  }
}

TEST(TruthTable, BooleanOps) {
  const auto a = TruthTable::variable(2, 0);
  const auto b = TruthTable::variable(2, 1);
  EXPECT_EQ((a & b).to_u16() & 0xf, 0x8);
  EXPECT_EQ((a | b).to_u16() & 0xf, 0xe);
  EXPECT_EQ((a ^ b).to_u16() & 0xf, 0x6);
  EXPECT_EQ((~a).to_u16() & 0xf, 0x5);
}

TEST(TruthTable, CofactorsSmallVars) {
  // f = a & b over 2 vars: f|b=0 = 0, f|b=1 = a.
  const auto a = TruthTable::variable(2, 0);
  const auto b = TruthTable::variable(2, 1);
  const auto f = a & b;
  EXPECT_TRUE(f.cofactor0(1).is_const0());
  EXPECT_EQ(f.cofactor1(1), a);
  EXPECT_TRUE(f.has_var(0));
  EXPECT_TRUE(f.has_var(1));
  EXPECT_FALSE((a | ~a).has_var(0));
}

TEST(TruthTable, CofactorsLargeVars) {
  const auto a = TruthTable::variable(8, 7);
  const auto b = TruthTable::variable(8, 0);
  const auto f = a ^ b;
  EXPECT_EQ(f.cofactor0(7), b);
  EXPECT_EQ(f.cofactor1(7), ~b);
}

TEST(TruthTable, U16RoundTrip) {
  for (std::uint16_t bits : {std::uint16_t{0x8000}, std::uint16_t{0x1234},
                             std::uint16_t{0xcafe}}) {
    EXPECT_EQ(TruthTable::from_u16(bits).to_u16(), bits);
  }
}

TEST(TruthTable, BinaryString) {
  const auto a = TruthTable::variable(2, 0);
  EXPECT_EQ(a.to_binary_string(), "1010");
}

TEST(Isop, CoversExactly) {
  clo::Rng rng(31);
  for (int num_vars = 1; num_vars <= 6; ++num_vars) {
    for (int trial = 0; trial < 40; ++trial) {
      TruthTable f(num_vars);
      for (std::size_t m = 0; m < f.num_bits(); ++m) {
        f.set_bit(m, rng.next_bool());
      }
      const auto cubes = isop(f);
      EXPECT_EQ(eval_sop(cubes, num_vars), f)
          << "vars=" << num_vars << " f=" << f.to_binary_string();
    }
  }
}

TEST(Isop, ConstantsAndSingleVar) {
  EXPECT_TRUE(isop(TruthTable::constant(3, false)).empty());
  const auto taut = isop(TruthTable::constant(3, true));
  ASSERT_EQ(taut.size(), 1u);
  EXPECT_EQ(taut[0].num_literals(), 0);
  const auto var = isop(TruthTable::variable(3, 1));
  ASSERT_EQ(var.size(), 1u);
  EXPECT_EQ(var[0].num_literals(), 1);
  EXPECT_TRUE(var[0].polarity & (1u << 1));
}

TEST(Isop, IrredundantOnSimpleFunctions) {
  // f = ab + cd should produce exactly 2 cubes of 2 literals.
  const auto a = TruthTable::variable(4, 0);
  const auto b = TruthTable::variable(4, 1);
  const auto c = TruthTable::variable(4, 2);
  const auto d = TruthTable::variable(4, 3);
  const auto f = (a & b) | (c & d);
  const auto cubes = isop(f);
  EXPECT_EQ(cubes.size(), 2u);
  EXPECT_EQ(sop_literals(cubes), 4);
}

TEST(Isop, XorNeedsFourCubes) {
  const auto a = TruthTable::variable(3, 0);
  const auto b = TruthTable::variable(3, 1);
  const auto c = TruthTable::variable(3, 2);
  const auto cubes = isop(a ^ b ^ c);
  EXPECT_EQ(cubes.size(), 4u);  // minimal SOP of 3-input XOR
  EXPECT_EQ(eval_sop(cubes, 3), a ^ b ^ c);
}

TEST(Isop, TenVariableStress) {
  clo::Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    TruthTable f(10);
    for (std::size_t m = 0; m < f.num_bits(); ++m) {
      f.set_bit(m, rng.next_bool(0.3));
    }
    EXPECT_EQ(eval_sop(isop(f), 10), f);
  }
}

// ---------------------------------------------------------------------------
// Differential test against a naive one-bool-per-minterm reference, on both
// sides of the inline/heap storage boundary (8 vs 9 variables).
// ---------------------------------------------------------------------------

using Bits = std::vector<bool>;

Bits random_bits(int num_vars, clo::Rng& rng) {
  Bits bits(std::size_t{1} << num_vars);
  for (std::size_t m = 0; m < bits.size(); ++m) bits[m] = rng.next_bool(0.5);
  return bits;
}

TruthTable from_bits(const Bits& bits, int num_vars) {
  TruthTable t(num_vars);
  for (std::size_t m = 0; m < bits.size(); ++m) t.set_bit(m, bits[m]);
  return t;
}

void expect_matches(const TruthTable& t, const Bits& bits, int num_vars) {
  ASSERT_EQ(t.num_vars(), num_vars);
  ASSERT_EQ(t.num_bits(), bits.size());
  for (std::size_t m = 0; m < bits.size(); ++m) {
    ASSERT_EQ(t.get_bit(m), bits[m]) << "minterm " << m << " of " << num_vars;
  }
  // Whole words agree too: no stray bits above 2^n in small tables.
  std::vector<std::uint64_t> words(t.num_words(), 0);
  for (std::size_t m = 0; m < bits.size(); ++m) {
    if (bits[m]) words[m >> 6] |= 1ULL << (m & 63);
  }
  ASSERT_EQ(std::vector<std::uint64_t>(t.words().begin(), t.words().end()),
            words);
}

Bits naive_cofactor(const Bits& f, int var, bool value) {
  Bits out(f.size());
  for (std::size_t m = 0; m < f.size(); ++m) {
    const std::size_t src = value ? (m | (std::size_t{1} << var))
                                  : (m & ~(std::size_t{1} << var));
    out[m] = f[src];
  }
  return out;
}

TEST(TruthTableDifferential, OpsMatchNaiveReference) {
  clo::Rng rng(2024);
  for (int n = 1; n <= 10; ++n) {
    for (int trial = 0; trial < 6; ++trial) {
      const Bits fa = random_bits(n, rng);
      const Bits fb = random_bits(n, rng);
      const TruthTable a = from_bits(fa, n);
      const TruthTable b = from_bits(fb, n);
      Bits not_a(fa.size()), and_ab(fa.size()), or_ab(fa.size()),
          xor_ab(fa.size());
      int ones = 0;
      for (std::size_t m = 0; m < fa.size(); ++m) {
        not_a[m] = !fa[m];
        and_ab[m] = fa[m] && fb[m];
        or_ab[m] = fa[m] || fb[m];
        xor_ab[m] = fa[m] != fb[m];
        ones += fa[m] ? 1 : 0;
      }
      expect_matches(~a, not_a, n);
      expect_matches(a & b, and_ab, n);
      expect_matches(a | b, or_ab, n);
      expect_matches(a ^ b, xor_ab, n);
      EXPECT_EQ(a.count_ones(), ones);
      EXPECT_EQ(a == b, fa == fb);
      EXPECT_TRUE(a == from_bits(fa, n));
      EXPECT_TRUE((~a).is_complement_of(a));
      EXPECT_EQ(b.is_complement_of(a), fb == not_a);
      EXPECT_TRUE((a ^ a).is_const0());
      EXPECT_TRUE((a | ~a).is_const1());
      for (int v = 0; v < n; ++v) {
        const Bits c0 = naive_cofactor(fa, v, false);
        const Bits c1 = naive_cofactor(fa, v, true);
        expect_matches(a.cofactor0(v), c0, n);
        expect_matches(a.cofactor1(v), c1, n);
        EXPECT_EQ(a.has_var(v), c0 != c1) << "var " << v << " of " << n;
      }
      // A function that ignores variable n-1 (both halves equal).
      EXPECT_FALSE(a.cofactor0(n - 1).has_var(n - 1));
      EXPECT_EQ(eval_sop(isop(a), n), a);
      std::vector<Cube> reused = {Cube{1, 1}};
      isop(b, reused);
      EXPECT_EQ(eval_sop(reused, n), b);
    }
  }
}

TEST(TruthTableDifferential, CopiesAndMovesAcrossInlineBoundary) {
  clo::Rng rng(99);
  const Bits f8 = random_bits(8, rng);
  const Bits f9 = random_bits(9, rng);
  const TruthTable t8 = from_bits(f8, 8);  // inline storage
  const TruthTable t9 = from_bits(f9, 9);  // heap storage

  TruthTable copy8(t8), copy9(t9);
  expect_matches(copy8, f8, 8);
  expect_matches(copy9, f9, 9);

  // Copy-assign both ways across the boundary; sources stay intact.
  TruthTable x = t8;
  x = t9;
  expect_matches(x, f9, 9);
  x = t8;
  expect_matches(x, f8, 8);
  x = TruthTable(9);
  x = t9;
  expect_matches(x, f9, 9);
  expect_matches(t8, f8, 8);
  expect_matches(t9, f9, 9);

  // Move-construct and move-assign both ways; moved-from tables are
  // valid empty (0-variable const0) tables that can be reassigned.
  TruthTable m9(std::move(copy9));
  expect_matches(m9, f9, 9);
  EXPECT_EQ(copy9.num_vars(), 0);
  EXPECT_TRUE(copy9.is_const0());
  TruthTable m8(std::move(copy8));
  expect_matches(m8, f8, 8);
  m8 = std::move(m9);
  expect_matches(m8, f9, 9);
  m9 = std::move(m8);
  expect_matches(m9, f9, 9);
  m8 = t8;
  m9 = std::move(m8);
  expect_matches(m9, f8, 8);
  copy9 = t9;
  expect_matches(copy9, f9, 9);
  // Self-assignment keeps the value.
  TruthTable& alias = copy9;
  copy9 = alias;
  expect_matches(copy9, f9, 9);

  // Tables outliving many copies of each other stay independent.
  std::vector<TruthTable> many(16, t9);
  many[3] = t8;
  many[3] = ~many[3];
  expect_matches(many[0], f9, 9);
  expect_matches(t8, f8, 8);
}

TEST(TruthTableDifferential, RejectsOutOfRangeSizes) {
  EXPECT_THROW(TruthTable(-1), std::invalid_argument);
  EXPECT_THROW(TruthTable(17), std::invalid_argument);
  EXPECT_EQ(TruthTable(16).num_words(), 1024u);
  EXPECT_TRUE(TruthTable::constant(16, true).is_const1());
}

}  // namespace
