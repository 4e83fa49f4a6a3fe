// Latency-aware ASAP scheduling.
//
// The paper's depth numbers are "cycles to finish all gate operations": on the
// NISQ backends every gate (1q, CPHASE, SWAP) occupies one cycle; on the
// lattice-surgery FT backend latencies are heterogeneous (CNOT = 2 cycles,
// diagonal-link SWAP = 2, axial-link SWAP = 6). The scheduler computes the
// makespan over wires, honouring the gate-list order per wire (our emitters
// produce dependency-ordered lists, so per-wire ASAP equals DAG ASAP).
//
// The core loop is a template over the latency callable, so the cost of a
// gate inlines into it. Production callers pass a concrete LatencyModel
// (arch/latency_model.hpp adds the schedule_asap/circuit_depth overloads for
// it); circuit_depth(c) below is the unit-latency step count.
#pragma once

#include <algorithm>
#include <vector>

#include "circuit/circuit.hpp"

namespace qfto {

struct Schedule {
  std::vector<Cycle> start;  // start cycle of each gate
  Cycle depth = 0;           // makespan

  /// Gates grouped by start cycle (ascending); within a group gates are
  /// disjoint on wires only under unit latency — used for layer dumps.
  std::vector<std::vector<std::int32_t>> layers() const;
};

/// ASAP core, generic over the latency callable (`Cycle(const Gate&)`) so
/// concrete models are devirtualized at the call site.
template <typename Latency>
Schedule schedule_asap_with(const Circuit& c, Latency&& latency) {
  Schedule s;
  s.start.resize(c.size(), 0);
  std::vector<Cycle> ready(c.num_qubits(), 0);
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Gate& g = c[i];
    Cycle t = ready[g.q0];
    if (g.two_qubit()) t = std::max(t, ready[g.q1]);
    const Cycle dur = latency(g);
    s.start[i] = t;
    ready[g.q0] = t + dur;
    if (g.two_qubit()) ready[g.q1] = t + dur;
    s.depth = std::max(s.depth, t + dur);
  }
  return s;
}

/// Makespan under unit latency: every gate takes one cycle (the paper's NISQ
/// step count).
inline Cycle circuit_depth(const Circuit& c) {
  return schedule_asap_with(c, [](const Gate&) { return Cycle{1}; }).depth;
}

}  // namespace qfto
