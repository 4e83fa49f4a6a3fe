#include "mapper/emitter.hpp"

#include "circuit/qft_spec.hpp"

namespace qfto {

LayerEmitter::LayerEmitter(const CouplingGraph& graph,
                           std::vector<PhysicalQubit> initial_mapping,
                           QftState& state, verify::EmitAudit* audit)
    : graph_(graph),
      circuit_(graph.num_qubits()),
      initial_(std::move(initial_mapping)),
      tracker_(initial_, graph.num_qubits()),
      state_(state),
      busy_layer_(graph.num_qubits(), -1),
      audit_(audit),
      store_gates_(audit == nullptr || audit->store_gates) {
  require(static_cast<std::int32_t>(initial_.size()) == state.n(),
          "LayerEmitter: mapping size must equal QftState size");
  // CPHASE angles depend only on the logical gap; resolve them once.
  const std::int32_t n = state.n();
  angle_by_gap_.resize(static_cast<std::size_t>(n > 0 ? n : 1), 0.0);
  for (std::int32_t gap = 1; gap < n; ++gap) {
    angle_by_gap_[static_cast<std::size_t>(gap)] = qft_angle(0, gap);
  }
  if (audit_ != nullptr) {
    audit_ready_.assign(static_cast<std::size_t>(graph.num_qubits()), 0);
  }
}

MappedCircuit LayerEmitter::finish() && {
  if (audit_ != nullptr) {
    audit_->engaged = true;
    QftCheckResult& r = audit_->result;
    if (!state_.all_done()) {
      // Matches the totals phase of IncrementalQftChecker::finish(): the
      // emitter's windows make partial progress the only possible defect.
      r.ok = false;
      r.error = state_.selfs_remaining() != 0
                    ? "missing H gates: got " +
                          std::to_string(state_.n() - state_.selfs_remaining()) +
                          " of " + std::to_string(state_.n())
                    : "missing CPHASE: " +
                          std::to_string(state_.pairs_remaining()) +
                          " pair(s) unfinished";
    } else {
      r.ok = true;
      r.error.clear();
      r.depth = audit_depth_;
      r.counts = audit_counts_;
    }
  }
  // Results outlive the emitter (the cache holds them), so they keep no
  // reserved slack: the estimate's prefaulted tail goes back here.
  circuit_.shrink_to_fit();
  MappedCircuit mc;
  mc.circuit = std::move(circuit_);
  mc.initial = std::move(initial_);
  mc.final_mapping = tracker_.logical_to_physical();
  return mc;
}

}  // namespace qfto
