// The LNN QFT base case (§2.2, Fig. 3) as a closed-loop engine.
//
// Instead of hard-coding the published gate pattern, we *derive* it each run:
// alternate (a) interaction layers — a maximal set of CPHASEs on adjacent
// pairs whose relaxed-ordering window is open, plus H gates on enabled idle
// qubits — with (b) movement layers — SWAPs for adjacent pairs that have
// interacted and still need to cross in the global reversal. Starting from an
// ascending placement this reproduces Fig. 3 exactly (each pair of logical
// indices sums to a constant per layer, final mapping reversed); the engine
// additionally handles descending and arbitrary placements (via a pre-sort),
// which the unit-based Sycamore / lattice-surgery mappers need after unit
// moves. Every emission goes through LayerEmitter, so hardware compliance is
// enforced while the circuit is built.
//
// Engines operate on a Line: the physical node list plus its adjacent-edge
// handles, resolved against the coupling graph once at construction. The
// per-layer loops run tens of millions of try_* calls at device scale, and
// pre-resolving moves the CSR adjacency probe out of every one of them.
//
// A movement layer can take a veto: a predicate over physical nodes whose
// SWAPs it skips (heavy-hex freezes a qubit that is about to park). The veto
// is a template parameter rather than a type-erased callable, because it runs
// twice per adjacent pair per movement layer (~4.8·N² calls per heavy-hex
// QFT) and must inline into the loop.
#pragma once

#include <vector>

#include "mapper/emitter.hpp"

namespace qfto {

/// A physical line (consecutive nodes coupled pairwise) with each adjacent
/// edge pre-resolved. Construction validates every (i, i+1) adjacency, so a
/// Line is proof the path exists in the graph.
class Line {
 public:
  Line() = default;
  Line(const LayerEmitter& em, std::vector<PhysicalQubit> nodes)
      : nodes_(std::move(nodes)) {
    if (!nodes_.empty()) edges_.reserve(nodes_.size() - 1);
    for (std::size_t i = 0; i + 1 < nodes_.size(); ++i) {
      edges_.push_back(em.resolve_edge(nodes_[i], nodes_[i + 1]));
    }
  }

  const std::vector<PhysicalQubit>& nodes() const { return nodes_; }
  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  PhysicalQubit operator[](std::size_t i) const { return nodes_[i]; }
  /// Edge joining nodes i and i+1.
  const LayerEmitter::EdgeHandle& edge(std::size_t i) const {
    return edges_[i];
  }

 private:
  std::vector<PhysicalQubit> nodes_;
  std::vector<LayerEmitter::EdgeHandle> edges_;
};

/// One interaction layer over `line`: CPHASEs left-to-right, then H on idle
/// enabled occupants. Returns the number of gates emitted. Does not advance
/// the layer.
std::int32_t line_interaction_layer(LayerEmitter& em, const Line& line);

/// One movement layer: SWAP every adjacent pair (left a, right b) with
/// pair done and still uncrossed (ascending: a<b must end b..a; descending
/// symmetric), skipping pairs where `frozen(node)` holds for either node.
/// Returns number of SWAPs.
template <typename Veto>
std::int32_t line_movement_layer(LayerEmitter& em, const Line& line,
                                 bool ascending, const Veto& frozen) {
  std::int32_t emitted = 0;
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    const PhysicalQubit pa = line[i], pb = line[i + 1];
    if (frozen(pa) || frozen(pb)) continue;
    const LogicalQubit a = em.occupant(pa), b = em.occupant(pb);
    if (a == kInvalidQubit || b == kInvalidQubit) continue;
    const bool uncrossed = ascending ? (a < b) : (a > b);
    if (uncrossed && em.state().pair_done(a, b)) {
      if (em.try_swap(line.edge(i))) ++emitted;
    }
  }
  return emitted;
}

/// Movement layer with no veto.
std::int32_t line_movement_layer(LayerEmitter& em, const Line& line,
                                 bool ascending);

/// True if occupants of `line` are monotone (asc or desc as requested).
bool line_monotone(const LayerEmitter& em, const Line& line, bool ascending);

/// Pure-SWAP odd-even sort of the occupants into ascending order. Safe: any
/// pair it crosses without interacting re-meets during the subsequent
/// reversal. Used to renormalize a unit after inter-unit traffic.
void line_presort_ascending(LayerEmitter& em, const Line& line);

/// Full QFT-IA on this line: presort if non-monotone, then run interaction /
/// movement rounds until every occupant pair has interacted and every
/// occupant has its H. Throws on stall (cannot happen for monotone inputs;
/// the guard protects against future misuse).
void run_line_qft(LayerEmitter& em, const Line& line);

}  // namespace qfto
