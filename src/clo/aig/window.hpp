#pragma once
// Reconvergence-driven cut computation (Mishchenko-style): grows a cut of
// bounded width around a root node by greedily expanding the leaf whose
// expansion increases the leaf count the least. Used by refactoring (cone
// collapse) and resubstitution (windowing + divisor collection).
//
// Every function has a form taking a WindowScratch: a pass keeps one for
// its whole run, so these calls reuse node-indexed buffers instead of
// building per-call hash sets. The forms without one are one-shot
// conveniences over a temporary scratch.

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "clo/aig/aig.hpp"
#include "clo/aig/truth.hpp"

namespace clo::aig {

/// Node-indexed scratch of the window functions. Marks are
/// generation-stamped: a mark on node n is live only while stamp[n]
/// equals the current generation, so starting a new call is O(1).
struct WindowScratch {
  /// Start a new generation over a graph with `num_slots` node slots.
  void begin(std::size_t num_slots);
  bool marked(std::uint32_t n, std::uint8_t kind) const {
    return stamp[n] == gen && mark[n] == kind;
  }
  void set_mark(std::uint32_t n, std::uint8_t kind) {
    stamp[n] = gen;
    mark[n] = kind;
  }
  void clear_mark(std::uint32_t n) { stamp[n] = 0; }

  std::uint32_t gen = 0;
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint8_t> mark;
  std::vector<TruthTable> value;  ///< cone function of each marked node
  std::vector<std::pair<std::uint32_t, int>> stack;
  std::vector<std::uint32_t> inside;  ///< collect_divisors' cone nodes
  std::vector<std::uint32_t> mffc;    ///< collect_divisors' MFFC nodes
};

// Scratch-reusing forms of the functions documented below; outputs are
// written into the caller's vectors (cleared first).
void reconvergence_cut(const Aig& g, std::uint32_t root, int max_leaves,
                       WindowScratch& scratch,
                       std::vector<std::uint32_t>& leaves);
void cone_nodes(const Aig& g, std::uint32_t root,
                std::span<const std::uint32_t> leaves, WindowScratch& scratch,
                std::vector<std::uint32_t>& order);
std::optional<TruthTable> try_cone_truth_table(
    const Aig& g, Lit root_lit, std::span<const std::uint32_t> leaves,
    int max_nodes, WindowScratch& scratch);
void collect_divisors(Aig& g, std::uint32_t root,
                      std::span<const std::uint32_t> leaves, int max_divisors,
                      WindowScratch& scratch,
                      std::vector<std::uint32_t>& divisors);

/// Reconvergence-driven cut of at most `max_leaves` leaves for `root`.
/// Leaves are node indices (PIs or internal nodes); every path from root
/// to the PIs crosses a leaf.
std::vector<std::uint32_t> reconvergence_cut(const Aig& g, std::uint32_t root,
                                             int max_leaves);

/// All nodes strictly inside the cone of `root` bounded by `leaves`
/// (excluding the leaves, including `root`), in topological order.
std::vector<std::uint32_t> cone_nodes(const Aig& g, std::uint32_t root,
                                      const std::vector<std::uint32_t>& leaves);

/// Bounded cone function extraction: truth table of `root_lit` over
/// `leaves`, or nullopt if the cone escapes the leaves (reaches a PI or
/// const outside them — possible after unrelated graph edits) or visits
/// more than `max_nodes` internal nodes.
std::optional<TruthTable> try_cone_truth_table(
    const Aig& g, Lit root_lit, const std::vector<std::uint32_t>& leaves,
    int max_nodes);

/// Divisor candidates for resubstituting `root`: nodes in the TFI cone of
/// `leaves` side-branches that (a) are not in the MFFC of root and (b) are
/// not root itself. Returned in topological order, capped at `max_divisors`.
std::vector<std::uint32_t> collect_divisors(
    Aig& g, std::uint32_t root, const std::vector<std::uint32_t>& leaves,
    int max_divisors);

}  // namespace clo::aig
