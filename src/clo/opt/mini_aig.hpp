#pragma once
// A small scratch AIG used to cost candidate structures before committing
// them to the real graph: local structural hashing + constant folding, with
// a replay step that instantiates the structure into a target Aig (where
// global strash sharing may make it even cheaper). A MiniAig is reset and
// reused across candidates, so after warm-up it builds without allocating.

#include <cstdint>
#include <vector>

#include "clo/aig/aig.hpp"

namespace clo::opt {

class MiniAig {
 public:
  /// `num_leaves` external inputs, indexed 1..num_leaves (node 0 = const0).
  explicit MiniAig(int num_leaves) : num_leaves_(num_leaves) {}

  /// Drop every AND node and start over with `num_leaves` inputs; keeps
  /// the buffers' capacity.
  void reset(int num_leaves);

  aig::Lit leaf(int i) const { return aig::make_lit(1 + i); }

  aig::Lit and_of(aig::Lit a, aig::Lit b);
  aig::Lit or_of(aig::Lit a, aig::Lit b) {
    return aig::lit_not(and_of(aig::lit_not(a), aig::lit_not(b)));
  }
  aig::Lit xor_of(aig::Lit a, aig::Lit b) {
    return or_of(and_of(a, aig::lit_not(b)), and_of(aig::lit_not(a), b));
  }
  aig::Lit mux_of(aig::Lit s, aig::Lit t, aig::Lit e) {
    return or_of(and_of(s, t), and_of(aig::lit_not(s), e));
  }

  int num_ands() const { return static_cast<int>(nodes_.size()); }

  /// Number of AND nodes in the cone of `root` (cost of just this output).
  int cone_size(aig::Lit root) const;

  /// Rebuild the cone of `root` inside `g`, substituting `leaf_lits` for
  /// the leaves; returns the literal computing the same function.
  aig::Lit replay(aig::Aig& g, aig::Lit root,
                  const std::vector<aig::Lit>& leaf_lits) const;

 private:
  struct Node {
    aig::Lit a, b;
  };
  /// Open-addressing strash slot; live only when `stamp == stamp_`.
  struct Slot {
    std::uint64_t key = 0;
    aig::Lit lit = 0;
    std::uint32_t stamp = 0;
  };

  /// Marks the AND nodes in the cone of `root` (into `in_cone_`); returns
  /// how many there are.
  int mark_cone(aig::Lit root) const;
  void grow_strash();

  int num_leaves_;
  std::vector<Node> nodes_;  // node id = num_leaves_ + 1 + index
  std::vector<Slot> strash_;  // power-of-two size, at most half full
  std::uint32_t stamp_ = 1;
  // Traversal scratch of cone_size()/replay().
  mutable std::vector<std::uint8_t> in_cone_;
  mutable std::vector<std::uint32_t> stack_;
  mutable std::vector<aig::Lit> map_;
};

}  // namespace clo::opt
