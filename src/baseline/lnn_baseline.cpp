#include "baseline/lnn_baseline.hpp"

#include "mapper/emitter.hpp"
#include "mapper/line_engine.hpp"

namespace qfto {

MappedCircuit map_qft_on_path(const CouplingGraph& g,
                              const std::vector<PhysicalQubit>& path,
                              verify::EmitAudit* audit) {
  const std::int32_t n = static_cast<std::int32_t>(path.size());
  require(n >= 1, "map_qft_on_path: empty path");
  for (std::int32_t i = 0; i + 1 < n; ++i) {
    require(g.adjacent(path[i], path[i + 1]),
            "map_qft_on_path: path not hardware-contiguous");
  }
  QftState state(n);
  // Logical i starts at the i-th node of the path.
  LayerEmitter em(g, path, state, audit);
  em.reserve_gates(qft_gate_reservation(n));
  run_line_qft(em, Line(em, path));
  return std::move(em).finish();
}

std::vector<PhysicalQubit> lattice_snake_path(std::int32_t m) {
  std::vector<PhysicalQubit> path;
  path.reserve(static_cast<std::size_t>(m) * m);
  for (std::int32_t r = 0; r < m; ++r) {
    if (r % 2 == 0) {
      for (std::int32_t c = 0; c < m; ++c) path.push_back(r * m + c);
    } else {
      for (std::int32_t c = m - 1; c >= 0; --c) path.push_back(r * m + c);
    }
  }
  return path;
}

}  // namespace qfto
