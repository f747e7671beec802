#pragma once
// And-Inverter Graph (AIG) with structural hashing, reference counting, and
// in-place node replacement — the substrate every synthesis transformation
// in this project operates on (mirroring ABC's AIG package).
//
// Representation:
//  * Node 0 is the constant-0 node; literal 0 = const0, literal 1 = const1.
//  * A literal packs (node_index << 1) | complement_bit.
//  * Primary inputs are nodes with no fanins; AND nodes have two fanin
//    literals ordered fanin0 <= fanin1 for canonical hashing.
//  * Primary outputs are literals (possibly complemented).
//
// Editing model: optimization passes call `replace()` to redirect all
// fanouts of a node to another literal. Replacement may leave behind
// trivially reducible nodes (e.g. AND(x, x)); `cleanup()` rebuilds the
// graph compactly, re-folding and re-hashing everything, and is run at the
// end of every pass so reported node counts are exact.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace clo::aig {

/// A literal: node index with a complement bit in the LSB.
using Lit = std::uint32_t;

inline constexpr Lit kLitFalse = 0;
inline constexpr Lit kLitTrue = 1;
/// Sentinel for "no literal" (used for PI fanins).
inline constexpr Lit kLitNull = 0xffffffffu;

constexpr std::uint32_t lit_node(Lit l) { return l >> 1; }
constexpr bool lit_is_compl(Lit l) { return (l & 1u) != 0; }
constexpr Lit make_lit(std::uint32_t node, bool compl_flag = false) {
  return (node << 1) | (compl_flag ? 1u : 0u);
}
constexpr Lit lit_not(Lit l) { return l ^ 1u; }
constexpr Lit lit_notc(Lit l, bool c) { return c ? (l ^ 1u) : l; }
constexpr Lit lit_regular(Lit l) { return l & ~1u; }

class Aig {
 public:
  Aig() { nodes_.push_back(Node{}); /* node 0 = const0 */ }

  // ---- Construction -----------------------------------------------------

  /// Append a primary input; returns its (non-complemented) literal.
  Lit add_pi(std::string name = "");

  /// Append a primary output driven by `l`; returns the PO index.
  std::uint32_t add_po(Lit l, std::string name = "");

  /// Structurally hashed AND with constant folding and trivial rules.
  Lit and_of(Lit a, Lit b);

  // Derived gates (built from AND/NOT).
  Lit or_of(Lit a, Lit b) { return lit_not(and_of(lit_not(a), lit_not(b))); }
  Lit nand_of(Lit a, Lit b) { return lit_not(and_of(a, b)); }
  Lit nor_of(Lit a, Lit b) { return and_of(lit_not(a), lit_not(b)); }
  Lit xor_of(Lit a, Lit b);
  Lit xnor_of(Lit a, Lit b) { return lit_not(xor_of(a, b)); }
  /// If s then t else e.
  Lit mux_of(Lit s, Lit t, Lit e);
  /// Majority of three.
  Lit maj_of(Lit a, Lit b, Lit c);

  /// Like and_of but never creates a node: returns the folded/hashed
  /// literal if it already exists, std::nullopt otherwise.
  std::optional<Lit> probe_and(Lit a, Lit b) const;

  // ---- Queries -----------------------------------------------------------

  std::size_t num_pis() const { return pis_.size(); }
  std::size_t num_pos() const { return pos_.size(); }
  /// Number of live AND nodes (the paper's "size" metric).
  std::size_t num_ands() const { return num_ands_; }
  /// Total node slots, including PIs, const0, and dead nodes.
  std::size_t num_slots() const { return nodes_.size(); }

  bool is_const0(std::uint32_t n) const { return n == 0; }
  bool is_pi(std::uint32_t n) const { return nodes_[n].is_pi; }
  bool is_and(std::uint32_t n) const {
    return n != 0 && !nodes_[n].is_pi && !nodes_[n].dead;
  }
  bool is_dead(std::uint32_t n) const { return nodes_[n].dead; }

  Lit fanin0(std::uint32_t n) const { return nodes_[n].f0; }
  Lit fanin1(std::uint32_t n) const { return nodes_[n].f1; }
  /// Fanout reference count (POs count as references).
  int nrefs(std::uint32_t n) const { return nodes_[n].nref; }
  const std::vector<std::uint32_t>& fanouts(std::uint32_t n) const {
    return nodes_[n].fanouts;
  }

  Lit pi(std::size_t i) const { return make_lit(pis_[i]); }
  std::uint32_t pi_node(std::size_t i) const { return pis_[i]; }
  Lit po(std::size_t i) const { return pos_[i]; }
  void set_po(std::size_t i, Lit l);

  const std::string& pi_name(std::size_t i) const { return pi_names_[i]; }
  const std::string& po_name(std::size_t i) const { return po_names_[i]; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Longest PI->PO path counted in AND nodes (recomputed on demand).
  int depth() const;

  /// Per-node levels (0 for PIs/const; AND = 1 + max fanin level).
  std::vector<int> levels() const;

  /// Live AND nodes in topological (fanin-before-fanout) order.
  std::vector<std::uint32_t> topo_order() const;

  // ---- Editing -----------------------------------------------------------

  /// Redirect every fanout (and PO) of AND node `n` to literal `with`,
  /// then recursively delete the now-unreferenced cone of `n`.
  /// Precondition: `with`'s cone must not contain `n` (no cycles).
  void replace(std::uint32_t n, Lit with);

  /// Size of the maximum fanout-free cone of `n`: the number of AND nodes
  /// that would die if `n` were removed.
  int mffc_size(std::uint32_t n);

  /// Reclaim the cone of `l` if it is unreferenced (used to discard
  /// speculatively built candidate structures that were not accepted).
  void sweep(Lit l) { kill_if_unreferenced(lit_node(l)); }

  /// The nodes of the maximum fanout-free cone of `n` (`n` first, then
  /// breadth-first toward the inputs).
  std::vector<std::uint32_t> mffc_nodes(std::uint32_t n);
  /// Same, written into `out` (cleared first).
  void mffc_nodes(std::uint32_t n, std::vector<std::uint32_t>& out);

  /// True if `target` is reachable from `root_lit` going toward the
  /// inputs, stopping at `boundary` nodes (used to guard replace()).
  bool reaches(Lit root_lit, std::uint32_t target,
               const std::vector<std::uint32_t>& boundary) const;

  /// Rebuild into a compact, fully re-hashed graph: drops dead nodes,
  /// re-folds trivial structures left by replace(), preserves PI/PO order
  /// and names. Invalidates node indices.
  void cleanup();

  /// Structural + functional sanity checks (acyclicity via topological
  /// reconstruction, ref-count consistency). Throws std::logic_error.
  void check() const;

 private:
  struct Node {
    Lit f0 = kLitNull;
    Lit f1 = kLitNull;
    int nref = 0;
    bool is_pi = false;
    bool dead = false;
    std::vector<std::uint32_t> fanouts;
  };

  static std::uint64_t strash_key(Lit a, Lit b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  void ref_fanins(std::uint32_t n);
  void kill_if_unreferenced(std::uint32_t n);
  void remove_fanout(std::uint32_t node, std::uint32_t fanout);

  // deref/ref walk used by mffc_size.
  int deref_count(std::uint32_t n);
  void ref_restore(std::uint32_t n);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> pis_;
  std::vector<Lit> pos_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> po_names_;
  std::unordered_map<std::uint64_t, std::uint32_t> strash_;
  std::size_t num_ands_ = 0;
  std::string name_ = "aig";
};

/// Convenience: total AND count + depth in one call (used by reports).
struct AigStats {
  std::size_t num_pis = 0;
  std::size_t num_pos = 0;
  std::size_t num_ands = 0;
  int depth = 0;
};
AigStats stats_of(const Aig& g);

}  // namespace clo::aig
