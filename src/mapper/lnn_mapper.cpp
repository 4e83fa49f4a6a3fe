#include "mapper/lnn_mapper.hpp"

#include <numeric>

#include "arch/line.hpp"
#include "mapper/line_engine.hpp"

namespace qfto {

MappedCircuit map_qft_lnn(std::int32_t n, verify::EmitAudit* audit) {
  require(n >= 1, "map_qft_lnn: n >= 1");
  const CouplingGraph g = make_line(n);
  QftState state(n);
  std::vector<PhysicalQubit> initial(n);
  std::iota(initial.begin(), initial.end(), 0);
  LayerEmitter em(g, initial, state, audit);
  em.reserve_gates(qft_gate_reservation(n));
  std::vector<PhysicalQubit> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);
  run_line_qft(em, Line(em, std::move(nodes)));
  return std::move(em).finish();
}

}  // namespace qfto
