#pragma once
// Resynthesis of a cut/cone function back into AIG structure. Two
// strategies are costed in a scratch MiniAig and the cheaper one wins:
//  * recursive Shannon/AND/XOR decomposition (BDD-flavored, memoized),
//  * ISOP covers of the function and its complement (SOP-flavored).
// Used by rewriting (k = 4 cuts) and refactoring (reconvergence cones).
//
// A pass that synthesizes many candidates keeps one Synthesizer for its
// whole run: the scratch MiniAig, the decomposition memo and the cover
// buffers are reused, so after warm-up a candidate costs no allocation.
// The free functions below are one-shot conveniences over a temporary
// Synthesizer.

#include <span>
#include <utility>
#include <vector>

#include "clo/aig/aig.hpp"
#include "clo/aig/truth.hpp"
#include "clo/opt/mini_aig.hpp"

namespace clo::opt {

/// Result of synthesizing a candidate directly into a real AIG.
struct SynthesizedCandidate {
  aig::Lit lit = aig::kLitNull;
  int added_nodes = 0;  ///< AND nodes newly created in the target graph
};

/// Reusable synthesis engine (one per pass; not thread-safe).
class Synthesizer {
 public:
  /// Build `tt` over `mini.leaf(i)` inputs; returns the output literal.
  /// Tries decomposition and both-polarity SOP, keeps the smaller.
  aig::Lit build_function(MiniAig& mini, const aig::TruthTable& tt);

  /// Synthesize `tt` over `leaf_lits` into `g` (with global strash
  /// sharing) and report exactly how many new nodes were created.
  SynthesizedCandidate synthesize_into(aig::Aig& g, const aig::TruthTable& tt,
                                       const std::vector<aig::Lit>& leaf_lits);

  /// Lower-bound estimate of the structure cost (MiniAig nodes) without
  /// touching the target graph — cheap pre-screen for rewriting.
  int estimate_cost(const aig::TruthTable& tt);

 private:
  aig::Lit build_decomp(MiniAig& mini, const aig::TruthTable& tt);
  aig::Lit build_sop(MiniAig& mini, std::span<const aig::Cube> cubes,
                     int num_vars);
  aig::Lit balanced_and(MiniAig& mini, std::vector<aig::Lit>& lits);

  MiniAig mini_{0};
  /// Decomposition memo of the current build: function -> literal.
  std::vector<std::pair<aig::TruthTable, aig::Lit>> memo_;
  std::vector<aig::Cube> cubes_pos_;
  std::vector<aig::Cube> cubes_neg_;
  std::vector<aig::Lit> lits_;
  std::vector<aig::Lit> terms_;
};

/// Build `tt` over `mini.leaf(i)` inputs; returns the output literal.
/// Tries decomposition and both-polarity SOP, keeps the smaller.
aig::Lit build_function(MiniAig& mini, const aig::TruthTable& tt);

/// Synthesize `tt` over `leaf_lits` into `g` (with global strash sharing)
/// and report exactly how many new nodes were created.
SynthesizedCandidate synthesize_into(aig::Aig& g, const aig::TruthTable& tt,
                                     const std::vector<aig::Lit>& leaf_lits);

/// Lower-bound estimate of the structure cost (MiniAig nodes) without
/// touching the target graph — cheap pre-screen for rewriting.
int estimate_cost(const aig::TruthTable& tt);

}  // namespace clo::opt
