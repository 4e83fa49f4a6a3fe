#include "verify/fidelity.hpp"

#include <cmath>
#include <vector>

#include "arch/device_model.hpp"

namespace qfto {

namespace {

// SWAP = 3 CNOTs; CPHASE = 2 CNOTs (see circuit/transforms.hpp).
constexpr double kSwapCnots = 3.0;
constexpr double kCphaseCnots = 2.0;

}  // namespace

double log10_fidelity(const GateCounts& counts, Cycle depth,
                      const NoiseModel& model) {
  const double one_q = static_cast<double>(counts.h + counts.x + counts.rz);
  const double two_q = static_cast<double>(counts.cnot) +
                       kSwapCnots * static_cast<double>(counts.swap) +
                       kCphaseCnots * static_cast<double>(counts.cphase);
  double log10f = one_q * std::log10(1.0 - model.error_1q) +
                  two_q * std::log10(1.0 - model.error_2q);
  log10f += -static_cast<double>(depth) / model.coherence_cycles /
            std::log(10.0);
  return log10f;
}

double log10_fidelity(const Circuit& c, const NoiseModel& model,
                      const LatencyModel& latency) {
  return log10_fidelity(count_gates(c), circuit_depth(c, latency), model);
}

double log10_fidelity(const Circuit& c, const DeviceModel& device,
                      const LatencyModel& latency) {
  const double ln10 = std::log(10.0);
  double log10f = 0.0;
  std::vector<bool> used(static_cast<std::size_t>(device.num_qubits()), false);
  const auto touch = [&](std::int32_t q) {
    if (q >= 0 && q < device.num_qubits())
      used[static_cast<std::size_t>(q)] = true;
  };
  for (const Gate& g : c) {
    touch(g.q0);
    if (is_two_qubit(g.kind)) {
      touch(g.q1);
      const double e2 = device.edge_error(g.q0, g.q1);
      const double per_cnot = std::log10(1.0 - e2);
      switch (g.kind) {
        case GateKind::kSwap: log10f += kSwapCnots * per_cnot; break;
        case GateKind::kCPhase: log10f += kCphaseCnots * per_cnot; break;
        default: log10f += per_cnot; break;
      }
    } else if (g.q0 >= 0 && g.q0 < device.num_qubits()) {
      log10f += std::log10(1.0 - device.qubit(g.q0).error_1q);
    } else {
      log10f += std::log10(1.0 - device.mean_error_1q());
    }
  }
  const double depth = static_cast<double>(circuit_depth(c, latency));
  for (std::int32_t q = 0; q < device.num_qubits(); ++q) {
    if (!used[static_cast<std::size_t>(q)]) continue;
    log10f += -depth / device.qubit(q).coherence_cycles / ln10;
  }
  return log10f;
}

}  // namespace qfto
