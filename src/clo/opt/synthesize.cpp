#include "clo/opt/synthesize.hpp"

#include "clo/util/cancel.hpp"

namespace clo::opt {

using aig::Cube;
using aig::Lit;
using aig::TruthTable;

Lit Synthesizer::build_decomp(MiniAig& mini, const TruthTable& tt) {
  if (tt.is_const0()) return aig::kLitFalse;
  if (tt.is_const1()) return aig::kLitTrue;
  // Tables in one build all share num_vars, so the words alone identify a
  // function; the memo holds each function at most once.
  for (const auto& [fn, lit] : memo_) {
    if (fn == tt) return lit;
  }
  for (const auto& [fn, lit] : memo_) {
    if (fn.is_complement_of(tt)) return aig::lit_not(lit);
  }
  // Topmost variable the function depends on.
  int v = tt.num_vars() - 1;
  while (v >= 0 && !tt.has_var(v)) --v;
  const Lit x = mini.leaf(v);
  const TruthTable f0 = tt.cofactor0(v);
  const TruthTable f1 = tt.cofactor1(v);
  Lit result;
  if (f0 == f1) {
    result = build_decomp(mini, f0);
  } else if (f1.is_complement_of(f0)) {
    result = mini.xor_of(x, build_decomp(mini, f0));
  } else if (f0.is_const0()) {
    result = mini.and_of(x, build_decomp(mini, f1));
  } else if (f1.is_const0()) {
    result = mini.and_of(aig::lit_not(x), build_decomp(mini, f0));
  } else if (f0.is_const1()) {
    result = mini.or_of(aig::lit_not(x), build_decomp(mini, f1));
  } else if (f1.is_const1()) {
    result = mini.or_of(x, build_decomp(mini, f0));
  } else {
    const Lit t = build_decomp(mini, f1);
    const Lit e = build_decomp(mini, f0);
    result = mini.mux_of(x, t, e);
  }
  memo_.emplace_back(tt, result);
  return result;
}

// Balanced AND over a list of literals, reduced pairwise in place.
Lit Synthesizer::balanced_and(MiniAig& mini, std::vector<Lit>& lits) {
  if (lits.empty()) return aig::kLitTrue;
  while (lits.size() > 1) {
    const std::size_t n = lits.size();
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      lits[i / 2] = mini.and_of(lits[i], lits[i + 1]);
    }
    if (n % 2) lits[n / 2] = lits[n - 1];
    lits.resize((n + 1) / 2);
  }
  return lits[0];
}

Lit Synthesizer::build_sop(MiniAig& mini, std::span<const Cube> cubes,
                           int num_vars) {
  if (cubes.empty()) return aig::kLitFalse;
  terms_.clear();
  for (const Cube& c : cubes) {
    lits_.clear();
    for (int v = 0; v < num_vars; ++v) {
      if (!(c.mask & (1u << v))) continue;
      const Lit x = mini.leaf(v);
      lits_.push_back((c.polarity & (1u << v)) ? x : aig::lit_not(x));
    }
    terms_.push_back(balanced_and(mini, lits_));
  }
  // Balanced OR of the terms.
  for (auto& l : terms_) l = aig::lit_not(l);
  return aig::lit_not(balanced_and(mini, terms_));
}

/// Build both strategies in `mini`; return the cheaper output literal.
Lit Synthesizer::build_function(MiniAig& mini, const TruthTable& tt) {
  // Innermost synthesis hot path: honor the ambient request token so a
  // cancel/deadline fires mid-rewrite, not only between passes.
  util::cancel_point();
  memo_.clear();
  const Lit by_decomp = build_decomp(mini, tt);
  const int cost_decomp = mini.cone_size(by_decomp);

  aig::isop(tt, cubes_pos_);
  aig::isop(~tt, cubes_neg_);
  const bool use_neg =
      aig::sop_literals(cubes_neg_) + static_cast<int>(cubes_neg_.size()) <
      aig::sop_literals(cubes_pos_) + static_cast<int>(cubes_pos_.size());
  const Lit by_sop_raw =
      build_sop(mini, use_neg ? cubes_neg_ : cubes_pos_, tt.num_vars());
  const Lit by_sop = use_neg ? aig::lit_not(by_sop_raw) : by_sop_raw;
  const int cost_sop = mini.cone_size(by_sop);

  return cost_sop < cost_decomp ? by_sop : by_decomp;
}

SynthesizedCandidate Synthesizer::synthesize_into(
    aig::Aig& g, const TruthTable& tt, const std::vector<Lit>& leaf_lits) {
  mini_.reset(tt.num_vars());
  const Lit root = build_function(mini_, tt);
  SynthesizedCandidate out;
  const std::size_t before = g.num_ands();
  out.lit = mini_.replay(g, root, leaf_lits);
  out.added_nodes = static_cast<int>(g.num_ands() - before);
  return out;
}

int Synthesizer::estimate_cost(const TruthTable& tt) {
  mini_.reset(tt.num_vars());
  return mini_.cone_size(build_function(mini_, tt));
}

Lit build_function(MiniAig& mini, const TruthTable& tt) {
  return Synthesizer().build_function(mini, tt);
}

SynthesizedCandidate synthesize_into(aig::Aig& g, const TruthTable& tt,
                                     const std::vector<Lit>& leaf_lits) {
  return Synthesizer().synthesize_into(g, tt, leaf_lits);
}

int estimate_cost(const TruthTable& tt) {
  return Synthesizer().estimate_cost(tt);
}

}  // namespace clo::opt
