// Depth- and gate-count-driven fidelity estimate. The paper's motivation for
// minimizing both metrics is noise: "smaller depth and fewer gate operations
// mean a lower possibility of being affected by external noise" (§7). This
// model turns the two compilation metrics into one comparable success
// probability:
//     F = (1-e1)^{#1q} * (1-e2)^{#2q-equivalents} * exp(-depth/T)
// with SWAP counted as three two-qubit gates (CPHASE as two) and T an
// idle-coherence horizon in cycles. Default rates are representative NISQ
// numbers; the model is for *relative* comparison (ours vs SABRE), not
// absolute prediction.
//
// Three resolutions, coarsest to finest:
//   - GateCounts + depth: the closed-form core — no schedule pass, used when
//     the checker already counted and scheduled (pipeline verify).
//   - Circuit + NoiseModel + LatencyModel: uniform rates, depth scheduled
//     under a concrete cycle table (unit latency by default).
//   - Circuit + DeviceModel: per-qubit 1q error/coherence and per-edge 2q
//     error from the calibration table — what SABRE's fidelity objective and
//     the device-aware pipeline report. Decoherence charges every *used*
//     qubit for the full depth, so the absolute scale differs from the
//     closed-form's single exp(-depth/T) term; comparisons are valid within
//     one resolution, not across them.
#pragma once

#include "arch/latency_model.hpp"
#include "circuit/mapped_circuit.hpp"
#include "circuit/scheduler.hpp"
#include "circuit/stats.hpp"

namespace qfto {

class DeviceModel;

struct NoiseModel {
  double error_1q = 1e-4;
  double error_2q = 5e-3;
  double coherence_cycles = 2e4;  // T in units of scheduler cycles
};

/// Closed-form core over already-computed statistics: log10 of the estimated
/// success probability (log keeps hundreds of thousands of gates
/// representable; higher is better, always <= 0).
double log10_fidelity(const GateCounts& counts, Cycle depth,
                      const NoiseModel& model);

/// Uniform-rate estimate with the depth resolved by a concrete LatencyModel
/// cycle table (which must be bound to the circuit's graph if any cost is
/// link-dependent).
double log10_fidelity(const Circuit& c, const NoiseModel& model = {},
                      const LatencyModel& latency = LatencyModel());

/// Calibrated estimate: per-qubit error_1q, per-edge error_2q (SWAP = 3
/// CNOT-equivalents, CPHASE = 2, charged at the edge's rate), and
/// decoherence summed over every qubit the circuit touches at that qubit's
/// own coherence horizon. `latency` should be device.latency_model(graph).
double log10_fidelity(const Circuit& c, const DeviceModel& device,
                      const LatencyModel& latency);

}  // namespace qfto
