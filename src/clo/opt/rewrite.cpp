#include <algorithm>
#include <deque>

#include "clo/aig/cuts.hpp"
#include "clo/aig/window.hpp"
#include "clo/opt/passes.hpp"
#include "clo/opt/synthesize.hpp"
#include "clo/util/timer.hpp"

namespace clo::opt {

using aig::Aig;
using aig::Cut;
using aig::Lit;
using aig::TruthTable;

namespace {

// Lazy per-pass cut computation: cuts are derived from the *current* fanins
// when a node is first visited and memoized. Processing nodes in a topo
// order snapshot guarantees a memoized node's structure never changes
// afterwards (replacements only touch strictly later nodes).
class LazyCuts {
 public:
  LazyCuts(Aig& g, int k, int max_cuts) : g_(g), k_(k), max_cuts_(max_cuts) {}

  const std::vector<Cut>& cuts_of(std::uint32_t n) {
    // Nodes built during the pass extend the memo; a deque keeps the
    // references handed out earlier valid.
    if (n >= memo_.size()) {
      memo_.resize(g_.num_slots());
      done_.resize(g_.num_slots(), 0);
    }
    if (done_[n]) return memo_[n];
    std::vector<Cut>& result = memo_[n];
    if (!g_.is_and(n)) {
      result.push_back(Cut{{n}});
    } else {
      const auto& c0 = cuts_of(aig::lit_node(g_.fanin0(n)));
      const auto& c1 = cuts_of(aig::lit_node(g_.fanin1(n)));
      Cut merged;
      for (const Cut& a : c0) {
        for (const Cut& b : c1) {
          if (!aig::merge_cuts(a, b, k_, merged)) continue;
          bool dominated = false;
          for (const Cut& c : result) {
            if (c.dominates(merged)) {
              dominated = true;
              break;
            }
          }
          if (dominated) continue;
          std::erase_if(result,
                        [&](const Cut& c) { return merged.dominates(c); });
          result.push_back(merged);
        }
      }
      std::sort(result.begin(), result.end(), [](const Cut& a, const Cut& b) {
        return a.leaves.size() < b.leaves.size();
      });
      if (static_cast<int>(result.size()) > max_cuts_) result.resize(max_cuts_);
      result.push_back(Cut{{n}});
    }
    done_[n] = 1;
    return result;
  }

 private:
  Aig& g_;
  int k_;
  int max_cuts_;
  std::deque<std::vector<Cut>> memo_;  // indexed by node
  std::vector<std::uint8_t> done_;
};

}  // namespace

PassStats rewrite(Aig& g, const RewriteParams& params) {
  clo::Stopwatch watch;
  watch.start();
  PassStats stats;
  stats.name = params.zero_cost ? "rwz" : "rw";
  stats.nodes_before = g.num_ands();
  stats.depth_before = g.depth();

  LazyCuts cuts(g, params.cut_leaves, params.max_cuts_per_node);
  aig::WindowScratch scratch;
  Synthesizer synth;
  std::vector<Lit> leaf_lits;
  const auto order = g.topo_order();
  struct Scored {
    int estimated_gain;
    TruthTable tt;
    const Cut* cut;
  };
  std::vector<Scored> scored;
  for (std::uint32_t n : order) {
    if (!g.is_and(n)) continue;  // died in an earlier replacement
    const int mffc = g.mffc_size(n);
    const int min_gain = params.zero_cost ? 0 : 1;
    // Phase A: score every cut without touching the graph.
    scored.clear();
    for (const Cut& cut : cuts.cuts_of(n)) {
      if (cut.leaves.size() < 2) continue;  // trivial or constant cut
      bool leaves_ok = true;
      for (std::uint32_t leaf : cut.leaves) {
        if (g.is_dead(leaf)) {
          leaves_ok = false;
          break;
        }
      }
      if (!leaves_ok) continue;
      auto tt = aig::try_cone_truth_table(g, aig::make_lit(n), cut.leaves, 64,
                                          scratch);
      if (!tt) continue;
      // Pessimistic estimate (ignores strash sharing): allow slack that
      // sharing may recover during the exact evaluation below.
      const int est = mffc - synth.estimate_cost(*tt);
      if (est < min_gain - 3) continue;
      scored.push_back(Scored{est, std::move(*tt), &cut});
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                return a.estimated_gain > b.estimated_gain;
              });
    // Phase B: evaluate candidates one at a time, sweeping each reject
    // before building the next. This keeps the gain accounting exact:
    // `added_nodes` can never silently reuse another candidate's garbage,
    // and the post-build MFFC excludes nodes the candidate pins.
    for (const Scored& s : scored) {
      leaf_lits.clear();
      for (std::uint32_t leaf : s.cut->leaves) {
        leaf_lits.push_back(aig::make_lit(leaf));
      }
      const auto cand = synth.synthesize_into(g, s.tt, leaf_lits);
      const int gain = g.mffc_size(n) - cand.added_nodes;
      const bool identity = aig::lit_node(cand.lit) == n;
      const bool cyclic = !identity && g.reaches(cand.lit, n, s.cut->leaves);
      if (identity || cyclic || gain < min_gain) {
        g.sweep(cand.lit);
        continue;
      }
      g.replace(n, cand.lit);
      ++stats.accepted_moves;
      break;
    }
  }
  g.cleanup();
  stats.nodes_after = g.num_ands();
  stats.depth_after = g.depth();
  watch.stop();
  stats.seconds = watch.seconds();
  return stats;
}

}  // namespace clo::opt
