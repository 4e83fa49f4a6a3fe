// LayerEmitter: the single funnel through which every analytical mapper
// emits gates. It enforces, at construction time of the circuit (not after
// the fact), the three hardware rules:
//   * two-qubit gates only on coupling-graph edges,
//   * one gate per physical qubit per layer,
//   * CPHASE only when the relaxed-ordering window (QftState) allows it.
// It simultaneously tracks the logical<->physical mapping through SWAPs and
// stamps the correct QFT angle on every CPHASE from the logical indices.
//
// Fused verification: constructed with a verify::EmitAudit, the emitter also
// maintains the latency-weighted ASAP depth and gate counts gate-by-gate —
// the same arithmetic, in the same gate order, as IncrementalQftChecker —
// and renders the verdict in finish(). The construction-time rules above
// discharge the checker's per-gate obligations (adjacency, exactly-once
// pairs/Hs in the relaxed window, tracked final mapping), so the pipeline
// can skip its separate post-hoc verification stream entirely: the audited
// QftCheckResult is bit-identical to check_qft_mapping on the same circuit.
// An audit with store_gates off (summary mode) keeps every rule and the
// audit but stores no gate: the verdict is the whole result.
//
// The try_* methods are header-inline deliberately: they are the per-gate
// hot path (tens of millions of calls at device scale), and cross-TU calls
// cost more than the work they do.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/coupling_graph.hpp"
#include "circuit/mapped_circuit.hpp"
#include "mapper/qft_state.hpp"
#include "verify/mapping_tracker.hpp"
#include "verify/verifier.hpp"

namespace qfto {

/// Gate-count bound the line-based emitters (lnn, lnn_baseline, lattice,
/// grid) reserve for QFT-n: n(n-1)/2 CPHASEs, n Hs, and a SWAP stream no
/// longer than the CPHASE one plus n. Sycamore moves whole units and
/// reserves its own bound (sycamore_gate_reservation); heavy-hex layouts
/// reserve heavy_hex_gate_reservation.
inline std::int64_t qft_gate_reservation(std::int32_t n) {
  return static_cast<std::int64_t>(n) * (n + 1);
}

/// Gate count the heavy-hex round loop emits for QFT on a main line of
/// `main_len` nodes with one dangling qubit at each junction position p:
/// n(n-1)/2 CPHASEs and n Hs for the n = main_len + |junctions| qubits,
/// main_len(main_len-1)/2 SWAPs along the line, and p+1 SWAPs for each
/// dangling qubit's trips through its junction. It is exact on every
/// canonical layout and every 13-column device up to n = 2104 (about
/// 0.90 n^2 and 0.91 n^2 gates, where qft_gate_reservation would reserve
/// n^2 + n); a layout that needs more grows the store.
inline std::int64_t heavy_hex_gate_reservation(
    std::int32_t main_len, const std::vector<std::int32_t>& junctions) {
  const std::int64_t m = main_len;
  const std::int64_t n = m + static_cast<std::int64_t>(junctions.size());
  std::int64_t parking = 0;
  for (const std::int32_t p : junctions) parking += p + 1;
  return n * (n - 1) / 2 + n + m * (m - 1) / 2 + parking;
}

class LayerEmitter {
 public:
  /// `audit` (optional) arms fused verification; it must outlive the
  /// emitter, and its latency model is consulted once per emitted gate. Its
  /// store_gates flag selects summary mode.
  LayerEmitter(const CouplingGraph& graph,
               std::vector<PhysicalQubit> initial_mapping, QftState& state,
               verify::EmitAudit* audit = nullptr);

  const CouplingGraph& graph() const { return graph_; }
  const MappingTracker& tracker() const { return tracker_; }
  QftState& state() { return state_; }

  LogicalQubit occupant(PhysicalQubit p) const {
    return tracker_.logical_at(p);
  }

  /// A pre-resolved coupling edge: adjacency was proven (and the link type
  /// captured for the audit's latency charge) by resolve_edge, so the
  /// per-gate try_* fast paths skip the CSR probe. Handles stay valid as
  /// long as the graph does — mappers hold it const for the whole emission.
  struct EdgeHandle {
    PhysicalQubit a;
    PhysicalQubit b;
    LinkType link;
  };

  /// Probes the coupling graph once; throws if (a, b) is not an edge.
  /// Mappers whose physical structure is fixed (slot lines, cross links)
  /// resolve each edge once up front instead of per emitted gate.
  EdgeHandle resolve_edge(PhysicalQubit a, PhysicalQubit b) const {
    const auto link = graph_.link_type(a, b);
    require(link.has_value(), "resolve_edge: nodes not coupled");
    return EdgeHandle{a, b, *link};
  }

  /// Pre-sizes and prefaults the gate store, so the emit loop runs in
  /// memory that is already mapped. Mappers call it once up front with a
  /// gate-count bound that covers what they emit (see qft_gate_reservation).
  void reserve_gates(std::int64_t gate_count) {
    if (store_gates_ && gate_count > 0) {
      circuit_.reserve(static_cast<std::size_t>(gate_count));
    }
  }

  /// Closes the current layer; subsequent gates start a new parallel layer.
  void next_layer() { ++layer_; }

  bool busy(PhysicalQubit p) const { return busy_layer_[p] == layer_; }

  /// Emits CPHASE between the occupants of the edge's endpoints if the
  /// window allows and both nodes are idle this layer. Returns true if
  /// emitted. The handle variant is the hot path: adjacency and link type
  /// were resolved once, so nothing per-gate touches the CSR.
  bool try_cphase(const EdgeHandle& e) {
    const PhysicalQubit a = e.a, b = e.b;
    if (busy(a) || busy(b)) return false;
    const LogicalQubit la = tracker_.logical_at(a);
    const LogicalQubit lb = tracker_.logical_at(b);
    if (la == kInvalidQubit || lb == kInvalidQubit) return false;
    if (!state_.can_pair(la, lb)) return false;
    const auto lo = std::min(la, lb), hi = std::max(la, lb);
    // The paper writes G(target, control) with the larger index as control;
    // the unitary is symmetric, so record (lo, hi) canonically on physical
    // wires. The angle depends only on the gap; the table keeps qft_angle's
    // libm scaling out of the per-gate path.
    if (storing()) {
      circuit_.append(Gate::cphase(
          a, b, angle_by_gap_[static_cast<std::size_t>(hi - lo)]));
    }
    state_.mark_pair(la, lb);
    mark_busy(a);
    mark_busy(b);
    ++gates_emitted_;
    if (audit_ != nullptr) {
      audit_step(GateKind::kCPhase, a, b, e.link);
      ++audit_counts_.cphase;
    }
    return true;
  }

  bool try_cphase(PhysicalQubit a, PhysicalQubit b) {
    return try_cphase(resolve_edge(a, b));
  }

  /// Emits H on the occupant of p if enabled and idle. Returns true if so.
  bool try_h(PhysicalQubit p) {
    if (busy(p)) return false;
    const LogicalQubit l = tracker_.logical_at(p);
    if (l == kInvalidQubit || !state_.can_self(l)) return false;
    if (storing()) circuit_.append(Gate::h(p));
    state_.mark_self(l);
    mark_busy(p);
    ++gates_emitted_;
    if (audit_ != nullptr) {
      audit_step(GateKind::kH, p, kInvalidQubit, LinkType::kStandard);
      ++audit_counts_.h;
    }
    return true;
  }

  /// Emits SWAP on the edge if both endpoints are idle (adjacency was
  /// enforced at resolve time).
  bool try_swap(const EdgeHandle& e) {
    const PhysicalQubit a = e.a, b = e.b;
    if (busy(a) || busy(b)) return false;
    if (storing()) circuit_.append(Gate::swap(a, b));
    tracker_.apply_swap(a, b);
    mark_busy(a);
    mark_busy(b);
    ++gates_emitted_;
    if (audit_ != nullptr) {
      audit_step(GateKind::kSwap, a, b, e.link);
      ++audit_counts_.swap;
    }
    return true;
  }

  bool try_swap(PhysicalQubit a, PhysicalQubit b) {
    return try_swap(resolve_edge(a, b));
  }

  /// Total gates emitted (stall detection) and per-kind tallies.
  std::int64_t gates_emitted() const { return gates_emitted_; }
  std::int64_t layer_index() const { return layer_; }

  /// Finalizes into a MappedCircuit (emitter unusable afterwards), its gate
  /// store trimmed to the gates emitted (empty in summary mode). With an
  /// audit armed, also renders the fused verification verdict.
  MappedCircuit finish() &&;

 private:
  void mark_busy(PhysicalQubit p) { busy_layer_[p] = layer_; }

  /// Laid out as the fall-through path: with a plain test, GCC's block
  /// order cost the materializing emit loop about 2% on lattice and grid.
  bool storing() const { return __builtin_expect(store_gates_, true); }

  /// Same ASAP recurrence, in the same gate order, as the streaming checker
  /// — the audited depth is bit-identical to post-hoc verification.
  void audit_step(GateKind kind, PhysicalQubit a, PhysicalQubit b,
                  LinkType link) {
    Cycle t = audit_ready_[a];
    if (b != kInvalidQubit) t = std::max(t, audit_ready_[b]);
    const Cycle fin = t + audit_->model.cycles_on_link(kind, link);
    audit_ready_[a] = fin;
    if (b != kInvalidQubit) audit_ready_[b] = fin;
    if (fin > audit_depth_) audit_depth_ = fin;
  }

  const CouplingGraph& graph_;
  Circuit circuit_;
  std::vector<PhysicalQubit> initial_;
  MappingTracker tracker_;
  QftState& state_;
  std::vector<double> angle_by_gap_;      // qft_angle(0, gap)
  std::vector<std::int64_t> busy_layer_;  // last layer index that used node p
  std::int64_t layer_ = 0;
  std::int64_t gates_emitted_ = 0;

  verify::EmitAudit* audit_ = nullptr;
  bool store_gates_ = true;  // false in summary mode
  std::vector<Cycle> audit_ready_;  // fused ASAP state, one per wire
  Cycle audit_depth_ = 0;
  GateCounts audit_counts_;
};

}  // namespace qfto
