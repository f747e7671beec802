#pragma once
// K-feasible cut enumeration (priority cuts), used by the rewriting pass
// (k = 4) and by the technology mapper (k <= 4: reduced cut functions are
// matched as 16-bit tables).

#include <cstdint>
#include <vector>

#include "clo/aig/aig.hpp"

namespace clo::aig {

/// A cut: sorted leaf node indices. The trivial cut {n} is always present.
struct Cut {
  std::vector<std::uint32_t> leaves;

  bool operator==(const Cut& o) const { return leaves == o.leaves; }

  /// True if every leaf of this cut is also a leaf of `o` (this dominates).
  bool dominates(const Cut& o) const;
};

struct CutParams {
  int max_leaves = 4;     ///< k
  int max_cuts = 8;       ///< priority cuts kept per node
  bool keep_trivial = true;
};

/// Per-node cut sets for all live AND nodes (indexed by node id;
/// PIs get their trivial cut). Nodes not in the PO cones get empty sets.
class CutSet {
 public:
  CutSet(const Aig& g, const CutParams& params);

  const std::vector<Cut>& cuts_of(std::uint32_t node) const {
    return cuts_[node];
  }

 private:
  std::vector<std::vector<Cut>> cuts_;
};

/// Merge two cuts; returns false if the union exceeds k leaves.
bool merge_cuts(const Cut& a, const Cut& b, int k, Cut& out);

}  // namespace clo::aig
