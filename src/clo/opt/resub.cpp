#include <algorithm>

#include "clo/aig/window.hpp"
#include "clo/opt/passes.hpp"
#include "clo/util/timer.hpp"

namespace clo::opt {

using aig::Aig;
using aig::Lit;
using aig::TruthTable;

namespace {

/// Functions of a window over its cut leaves, computed from the current
/// structure: the root and every divisor, each stored as raw words in both
/// polarities, so the candidate loops below test any phase combination
/// without building tables. One instance is reused for every window of a
/// pass.
struct WindowFunctions {
  std::size_t num_words = 0;
  std::vector<std::uint32_t> nodes;       ///< divisor nodes
  std::vector<std::uint64_t> words;       ///< per divisor: plain, complement
  std::vector<std::uint64_t> root_words;  ///< plain, complement

  std::size_t size() const { return nodes.size(); }
  const std::uint64_t* divisor(std::size_t i, bool complemented) const {
    return words.data() + (2 * i + (complemented ? 1 : 0)) * num_words;
  }
  void add_divisor(std::uint32_t d, const TruthTable& t) {
    nodes.push_back(d);
    append_both(words, t);
  }
  static void append_both(std::vector<std::uint64_t>& out,
                          const TruthTable& t) {
    const auto plain = t.words();
    out.insert(out.end(), plain.begin(), plain.end());
    const TruthTable neg = ~t;
    const auto compl_words = neg.words();
    out.insert(out.end(), compl_words.begin(), compl_words.end());
  }
  /// +1 if the function whose word i is word_of(i) equals the root
  /// function, -1 if it equals its complement, 0 otherwise.
  template <class WordOf>
  int match(WordOf word_of) const {
    bool same = true;
    bool compl_same = true;
    for (std::size_t i = 0; i < num_words; ++i) {
      const std::uint64_t f = word_of(i);
      same = same && f == root_words[i];
      compl_same = compl_same && f == root_words[num_words + i];
      if (!same && !compl_same) return 0;
    }
    return same ? 1 : -1;
  }
};

/// Fills `w`; false if the root cone escapes the leaves or is too big.
bool compute_window(Aig& g, std::uint32_t root,
                    const std::vector<std::uint32_t>& leaves,
                    const std::vector<std::uint32_t>& divisors, int max_nodes,
                    aig::WindowScratch& scratch, WindowFunctions& w) {
  w.nodes.clear();
  w.words.clear();
  w.root_words.clear();
  const auto root_tt = aig::try_cone_truth_table(g, aig::make_lit(root),
                                                 leaves, max_nodes, scratch);
  if (!root_tt) return false;
  w.num_words = root_tt->num_words();
  WindowFunctions::append_both(w.root_words, *root_tt);
  const int k = static_cast<int>(leaves.size());
  for (std::uint32_t d : divisors) {
    // Leaves are their own variables; inner divisors are cone functions.
    auto it = std::find(leaves.begin(), leaves.end(), d);
    if (it != leaves.end()) {
      w.add_divisor(
          d, TruthTable::variable(k, static_cast<int>(it - leaves.begin())));
      continue;
    }
    const auto tt = aig::try_cone_truth_table(g, aig::make_lit(d), leaves,
                                              max_nodes, scratch);
    if (tt) w.add_divisor(d, *tt);
  }
  return true;
}

}  // namespace

PassStats resub(Aig& g, const ResubParams& params) {
  clo::Stopwatch watch;
  watch.start();
  PassStats stats;
  stats.name = params.zero_cost ? "rsz" : "rs";
  stats.nodes_before = g.num_ands();
  stats.depth_before = g.depth();

  aig::WindowScratch scratch;
  std::vector<std::uint32_t> leaves;
  std::vector<std::uint32_t> divisors;
  WindowFunctions dv;
  const auto order = g.topo_order();
  for (std::uint32_t n : order) {
    if (!g.is_and(n)) continue;
    const int mffc = g.mffc_size(n);
    const int min_gain = params.zero_cost ? 0 : 1;
    aig::reconvergence_cut(g, n, params.max_window_leaves, scratch, leaves);
    if (leaves.empty()) continue;
    bool leaves_ok = true;
    for (std::uint32_t leaf : leaves) {
      if (g.is_dead(leaf)) {
        leaves_ok = false;
        break;
      }
    }
    if (!leaves_ok) continue;
    aig::collect_divisors(g, n, leaves, params.max_divisors, scratch,
                          divisors);
    if (!compute_window(g, n, leaves, divisors, 400, scratch, dv)) continue;

    bool replaced = false;
    // --- 0-resub: an existing node already computes the function. -------
    for (std::size_t i = 0; i < dv.size(); ++i) {
      const std::uint32_t d = dv.nodes[i];
      if (d == n) continue;
      const std::uint64_t* t = dv.divisor(i, false);
      const int m = dv.match([&](std::size_t w) { return t[w]; });
      if (m == 0) continue;
      const Lit with = aig::make_lit(d, m < 0);
      if (mffc < std::max(min_gain, 1)) break;  // gain = mffc
      g.replace(n, with);
      ++stats.accepted_moves;
      replaced = true;
      break;
    }
    if (replaced) continue;

    // --- 1-resub: AND/OR of two divisors (any polarities). --------------
    for (std::size_t i = 0; i < dv.size() && !replaced; ++i) {
      for (std::size_t j = i + 1; j < dv.size() && !replaced; ++j) {
        for (int pol = 0; pol < 4 && !replaced; ++pol) {
          const std::uint64_t* a = dv.divisor(i, (pol & 1) != 0);
          const std::uint64_t* b = dv.divisor(j, (pol & 2) != 0);
          const int m = dv.match([&](std::size_t w) { return a[w] & b[w]; });
          if (m == 0) continue;
          const bool out_compl = m < 0;
          const Lit la = aig::make_lit(dv.nodes[i], (pol & 1) != 0);
          const Lit lb = aig::make_lit(dv.nodes[j], (pol & 2) != 0);
          const int added = g.probe_and(la, lb) ? 0 : 1;
          if (mffc - added < min_gain) continue;  // cheap upper bound
          const Lit new_lit = aig::lit_notc(g.and_of(la, lb), out_compl);
          if (aig::lit_node(new_lit) == n) continue;
          // Exact gain: the new node references the divisors, so any
          // divisor inside the old MFFC no longer counts as freed.
          const int gain = g.mffc_size(n) - added;
          if (gain < min_gain) {
            g.sweep(aig::lit_regular(new_lit));
            continue;
          }
          g.replace(n, new_lit);
          ++stats.accepted_moves;
          replaced = true;
        }
      }
    }
    if (replaced || !params.two_level) continue;

    // --- 2-resub: n = da & (db | dc), all polarities, output maybe
    // complemented. Adds up to 2 nodes, so only worthwhile for MFFC >= 3
    // (or >= 2 in zero-cost mode).
    const int need = params.zero_cost ? 2 : 3;
    if (mffc < need) continue;
    const std::size_t limit =
        std::min<std::size_t>(dv.size(), params.max_two_level_divisors);
    for (std::size_t a = 0; a < limit && !replaced; ++a) {
      for (std::size_t b = 0; b < limit && !replaced; ++b) {
        if (b == a) continue;
        for (std::size_t c = b + 1; c < limit && !replaced; ++c) {
          if (c == a) continue;
          for (int pol = 0; pol < 8 && !replaced; ++pol) {
            const std::uint64_t* ta = dv.divisor(a, (pol & 1) != 0);
            const std::uint64_t* tb = dv.divisor(b, (pol & 2) != 0);
            const std::uint64_t* tc = dv.divisor(c, (pol & 4) != 0);
            const int m = dv.match(
                [&](std::size_t w) { return ta[w] & (tb[w] | tc[w]); });
            if (m == 0) continue;
            const bool out_compl = m < 0;
            const Lit la = aig::make_lit(dv.nodes[a], (pol & 1) != 0);
            const Lit lb = aig::make_lit(dv.nodes[b], (pol & 2) != 0);
            const Lit lc = aig::make_lit(dv.nodes[c], (pol & 4) != 0);
            const std::size_t ands_before = g.num_ands();
            const Lit inner = g.or_of(lb, lc);
            const Lit top = g.and_of(la, inner);
            const int added = static_cast<int>(g.num_ands() - ands_before);
            if (aig::lit_node(top) == n || aig::lit_node(inner) == n) {
              g.sweep(top);
              continue;
            }
            // Exact gain: the new structure pins any reused divisors, so
            // the recomputed MFFC counts only what replace() will free.
            const int gain = g.mffc_size(n) - added;
            if (gain < min_gain) {
              g.sweep(top);
              continue;
            }
            g.replace(n, aig::lit_notc(top, out_compl));
            ++stats.accepted_moves;
            replaced = true;
          }
        }
      }
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
