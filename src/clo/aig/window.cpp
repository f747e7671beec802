#include "clo/aig/window.hpp"

#include <algorithm>

namespace clo::aig {
namespace {

// Mark kinds of WindowScratch.
constexpr std::uint8_t kLeaf = 1;
constexpr std::uint8_t kVisited = 2;  // cone_nodes: inside the cone
constexpr std::uint8_t kValued = 1;   // try_cone_truth_table: value[n] set
constexpr std::uint8_t kExcluded = 1; // collect_divisors: in the MFFC

}  // namespace

void WindowScratch::begin(std::size_t num_slots) {
  if (stamp.size() < num_slots) {
    stamp.resize(num_slots, 0);
    mark.resize(num_slots, 0);
  }
  if (++gen == 0) {  // wrapped: clear every stamp once
    std::fill(stamp.begin(), stamp.end(), 0);
    gen = 1;
  }
}

void reconvergence_cut(const Aig& g, std::uint32_t root, int max_leaves,
                       WindowScratch& s, std::vector<std::uint32_t>& leaves) {
  leaves.clear();
  if (!g.is_and(root)) {
    leaves.push_back(root);
    return;
  }
  s.begin(g.num_slots());
  auto add_leaf = [&](std::uint32_t n) {
    if (s.marked(n, kLeaf)) return;
    s.set_mark(n, kLeaf);
    leaves.push_back(n);
  };
  add_leaf(lit_node(g.fanin0(root)));
  add_leaf(lit_node(g.fanin1(root)));

  // Cost of expanding leaf n = how many leaves the set grows by.
  auto expansion_cost = [&](std::uint32_t n) {
    int cost = -1;  // the leaf itself disappears
    const std::uint32_t c0 = lit_node(g.fanin0(n));
    const std::uint32_t c1 = lit_node(g.fanin1(n));
    if (!s.marked(c0, kLeaf)) ++cost;
    if (c1 != c0 && !s.marked(c1, kLeaf)) ++cost;
    return cost;
  };

  while (true) {
    int best_cost = 1000;
    int best_index = -1;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const std::uint32_t n = leaves[i];
      if (!g.is_and(n) || n == root) continue;
      const int cost = expansion_cost(n);
      if (cost < best_cost) {
        best_cost = cost;
        best_index = static_cast<int>(i);
      }
    }
    if (best_index < 0) break;
    if (static_cast<int>(leaves.size()) + best_cost > max_leaves) break;
    const std::uint32_t n = leaves[best_index];
    leaves.erase(leaves.begin() + best_index);
    s.clear_mark(n);
    add_leaf(lit_node(g.fanin0(n)));
    add_leaf(lit_node(g.fanin1(n)));
  }
  std::sort(leaves.begin(), leaves.end());
}

std::vector<std::uint32_t> reconvergence_cut(const Aig& g, std::uint32_t root,
                                             int max_leaves) {
  WindowScratch s;
  std::vector<std::uint32_t> leaves;
  reconvergence_cut(g, root, max_leaves, s, leaves);
  return leaves;
}

void cone_nodes(const Aig& g, std::uint32_t root,
                std::span<const std::uint32_t> leaves, WindowScratch& s,
                std::vector<std::uint32_t>& order) {
  order.clear();
  s.begin(g.num_slots());
  for (std::uint32_t l : leaves) s.set_mark(l, kLeaf);
  s.stack.assign(1, {root, 0});
  while (!s.stack.empty()) {
    auto [n, phase] = s.stack.back();
    s.stack.pop_back();
    if (phase == 0) {
      if (s.stamp[n] == s.gen || !g.is_and(n)) continue;  // leaf or visited
      s.set_mark(n, kVisited);
      s.stack.emplace_back(n, 1);
      s.stack.emplace_back(lit_node(g.fanin0(n)), 0);
      s.stack.emplace_back(lit_node(g.fanin1(n)), 0);
    } else {
      order.push_back(n);
    }
  }
}

std::vector<std::uint32_t> cone_nodes(const Aig& g, std::uint32_t root,
                                      const std::vector<std::uint32_t>& leaves) {
  WindowScratch s;
  std::vector<std::uint32_t> order;
  cone_nodes(g, root, leaves, s, order);
  return order;
}

std::optional<TruthTable> try_cone_truth_table(
    const Aig& g, Lit root_lit, std::span<const std::uint32_t> leaves,
    int max_nodes, WindowScratch& s) {
  const int k = static_cast<int>(leaves.size());
  if (k > TruthTable::kMaxVars) return std::nullopt;
  s.begin(g.num_slots());
  if (s.value.size() < g.num_slots()) s.value.resize(g.num_slots());
  for (int i = 0; i < k; ++i) {
    if (s.marked(leaves[i], kValued)) continue;  // first occurrence wins
    s.set_mark(leaves[i], kValued);
    s.value[leaves[i]] = TruthTable::variable(k, i);
  }
  int internal = 0;
  s.stack.assign(1, {lit_node(root_lit), 0});
  while (!s.stack.empty()) {
    auto [n, phase] = s.stack.back();
    s.stack.pop_back();
    if (phase == 0) {
      if (s.marked(n, kValued)) continue;
      if (n == 0) {
        s.set_mark(n, kValued);
        s.value[n] = TruthTable::constant(k, false);
        continue;
      }
      if (g.is_pi(n) || g.is_dead(n)) return std::nullopt;  // escaped the cut
      if (++internal > max_nodes) return std::nullopt;
      s.stack.emplace_back(n, 1);
      s.stack.emplace_back(lit_node(g.fanin0(n)), 0);
      s.stack.emplace_back(lit_node(g.fanin1(n)), 0);
    } else {
      const Lit f0 = g.fanin0(n);
      const Lit f1 = g.fanin1(n);
      TruthTable& t = s.value[n];
      t = s.value[lit_node(f0)];
      if (lit_is_compl(f0)) t = ~t;
      if (lit_is_compl(f1)) {
        t &= ~s.value[lit_node(f1)];
      } else {
        t &= s.value[lit_node(f1)];
      }
      s.set_mark(n, kValued);
    }
  }
  const TruthTable& t = s.value[lit_node(root_lit)];
  return lit_is_compl(root_lit) ? ~t : t;
}

std::optional<TruthTable> try_cone_truth_table(
    const Aig& g, Lit root_lit, const std::vector<std::uint32_t>& leaves,
    int max_nodes) {
  WindowScratch s;
  return try_cone_truth_table(g, root_lit, leaves, max_nodes, s);
}

void collect_divisors(Aig& g, std::uint32_t root,
                      std::span<const std::uint32_t> leaves, int max_divisors,
                      WindowScratch& s, std::vector<std::uint32_t>& divisors) {
  cone_nodes(g, root, leaves, s, s.inside);
  g.mffc_nodes(root, s.mffc);
  s.begin(g.num_slots());
  for (std::uint32_t n : s.mffc) s.set_mark(n, kExcluded);
  divisors.clear();
  // Leaves first (cheapest divisors: no new structure below them).
  for (std::uint32_t l : leaves) {
    if (g.is_const0(l)) continue;
    divisors.push_back(l);
  }
  for (std::uint32_t n : s.inside) {
    if (n == root || s.marked(n, kExcluded)) continue;
    divisors.push_back(n);
    if (static_cast<int>(divisors.size()) >= max_divisors) break;
  }
}

std::vector<std::uint32_t> collect_divisors(
    Aig& g, std::uint32_t root, const std::vector<std::uint32_t>& leaves,
    int max_divisors) {
  WindowScratch s;
  std::vector<std::uint32_t> divisors;
  collect_divisors(g, root, leaves, max_divisors, s, divisors);
  return divisors;
}

}  // namespace clo::aig
