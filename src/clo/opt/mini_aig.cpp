#include "clo/opt/mini_aig.hpp"

#include <algorithm>

namespace clo::opt {

using aig::Lit;
using aig::lit_is_compl;
using aig::lit_node;
using aig::lit_notc;
using aig::make_lit;

namespace {

std::size_t slot_hash(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32);
}

}  // namespace

void MiniAig::reset(int num_leaves) {
  num_leaves_ = num_leaves;
  nodes_.clear();
  if (++stamp_ == 0) {  // stamp wrapped: clear for real once
    for (Slot& s : strash_) s.stamp = 0;
    stamp_ = 1;
  }
}

void MiniAig::grow_strash() {
  std::vector<Slot> old = std::move(strash_);
  strash_.assign(std::max<std::size_t>(64, old.size() * 2), Slot{});
  const std::size_t mask = strash_.size() - 1;
  for (const Slot& s : old) {
    if (s.stamp != stamp_) continue;
    std::size_t i = slot_hash(s.key) & mask;
    while (strash_[i].stamp == stamp_) i = (i + 1) & mask;
    strash_[i] = s;
  }
}

Lit MiniAig::and_of(Lit a, Lit b) {
  if (a > b) std::swap(a, b);
  if (a == aig::kLitFalse) return aig::kLitFalse;
  if (a == aig::kLitTrue) return b;
  if (a == b) return a;
  if (a == aig::lit_not(b)) return aig::kLitFalse;
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  if (2 * (nodes_.size() + 1) > strash_.size()) grow_strash();
  const std::size_t mask = strash_.size() - 1;
  std::size_t i = slot_hash(key) & mask;
  for (; strash_[i].stamp == stamp_; i = (i + 1) & mask) {
    if (strash_[i].key == key) return strash_[i].lit;
  }
  nodes_.push_back(Node{a, b});
  const Lit result =
      make_lit(static_cast<std::uint32_t>(num_leaves_ + nodes_.size()));
  strash_[i] = Slot{key, result, stamp_};
  return result;
}

int MiniAig::mark_cone(Lit root) const {
  in_cone_.assign(nodes_.size(), 0);
  stack_.assign(1, lit_node(root));
  int count = 0;
  while (!stack_.empty()) {
    const std::uint32_t n = stack_.back();
    stack_.pop_back();
    if (n <= static_cast<std::uint32_t>(num_leaves_)) continue;
    const std::size_t idx = n - num_leaves_ - 1;
    if (in_cone_[idx]) continue;
    in_cone_[idx] = 1;
    ++count;
    stack_.push_back(lit_node(nodes_[idx].a));
    stack_.push_back(lit_node(nodes_[idx].b));
  }
  return count;
}

int MiniAig::cone_size(Lit root) const { return mark_cone(root); }

Lit MiniAig::replay(aig::Aig& g, Lit root,
                    const std::vector<aig::Lit>& leaf_lits) const {
  map_.assign(num_leaves_ + 1 + nodes_.size(), aig::kLitNull);
  map_[0] = aig::kLitFalse;
  for (int i = 0; i < num_leaves_; ++i) map_[1 + i] = leaf_lits[i];
  auto mapped = [&](Lit l) {
    return lit_notc(map_[lit_node(l)], lit_is_compl(l));
  };
  // Nodes were created bottom-up, so a forward pass is topological;
  // only build the cone of root.
  mark_cone(root);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!in_cone_[i]) continue;
    map_[num_leaves_ + 1 + i] =
        g.and_of(mapped(nodes_[i].a), mapped(nodes_[i].b));
  }
  return mapped(root);
}

}  // namespace clo::opt
