#include "arch/latency_model.hpp"

#include "arch/device_model.hpp"

namespace qfto {

LatencyModel LatencyModel::nisq() {
  // Resolved from the default NISQ device spec, not hardwired: editing the
  // spec's calibration changes what nisq() means, which is the point.
  return DeviceModel::nisq_spec().latency_model();
}

LatencyModel LatencyModel::lattice(const CouplingGraph& g) {
  LatencyModel m;
  m.bind(g);
  m.set_cost(GateKind::kCnot, kLsCnotDepth);
  m.set_cost(GateKind::kCPhase, kLsCphaseDepth);
  m.set_cost(GateKind::kSwap, kLsSlowSwapDepth);
  m.set_cost(GateKind::kSwap, LinkType::kFast, kLsFastSwapDepth);
  return m;
}

}  // namespace qfto
