#include "mapper/lattice_mapper.hpp"

#include "arch/grid.hpp"
#include "arch/lattice_surgery.hpp"
#include "mapper/emitter.hpp"
#include "mapper/line_engine.hpp"
#include "mapper/two_line_ie.hpp"
#include "mapper/unit_driver.hpp"

namespace qfto {

namespace {

// Shared row-unit scheme for any m-by-m backend whose rows are lines and
// whose inter-row links join equal columns (rotated lattice surgery and the
// plain 2D grid of Appendix 7).
MappedCircuit map_qft_row_units(const CouplingGraph& g, std::int32_t m,
                                const LatticeMapperOptions& opts,
                                verify::EmitAudit* audit) {
  const std::int32_t n = m * m;
  auto node = [m](std::int32_t r, std::int32_t c) { return r * m + c; };

  // Natural ordering, row-major (Fig. 15(a)).
  std::vector<PhysicalQubit> initial(n);
  for (std::int32_t r = 0; r < m; ++r) {
    for (std::int32_t c = 0; c < m; ++c) initial[r * m + c] = node(r, c);
  }
  QftState state(n);
  LayerEmitter em(g, initial, state, audit);
  em.reserve_gates(qft_gate_reservation(n));

  // Slots are fixed physical structure: resolve every row line and every
  // vertical edge chain once, before emitting a single gate.
  std::vector<Line> lines;
  lines.reserve(static_cast<std::size_t>(m));
  for (std::int32_t r = 0; r < m; ++r) {
    std::vector<PhysicalQubit> row(static_cast<std::size_t>(m));
    for (std::int32_t c = 0; c < m; ++c) {
      row[static_cast<std::size_t>(c)] = node(r, c);
    }
    lines.emplace_back(em, std::move(row));
  }

  // Vertical links join equal column positions.
  std::vector<CrossLink> cross;
  for (std::int32_t c = 0; c < m; ++c) cross.push_back({c, c});
  std::vector<std::vector<LayerEmitter::EdgeHandle>> vert(
      static_cast<std::size_t>(m - 1));
  for (std::int32_t s = 0; s + 1 < m; ++s) {
    vert[static_cast<std::size_t>(s)] =
        resolve_cross_links(em, lines[s], lines[s + 1], cross);
  }

  UnitOps ops;
  ops.ia = [&](std::int32_t s) { run_line_qft(em, lines[s]); };
  ops.ie = [&](std::int32_t s) {
    TwoLineIeConfig cfg{0, opts.phase_offset};
    cfg.strict = opts.strict_ie;
    run_two_line_ie(em, lines[s], lines[s + 1], vert[s], cfg);
  };
  ops.unit_swap = [&](std::int32_t s) {
    em.next_layer();
    if (opts.transversal_unit_swap) {
      for (std::int32_t c = 0; c < m; ++c) em.try_swap(vert[s][c]);
    } else {
      // Ablation variant: exchange via three vertical layers restricted to
      // even/odd columns — strictly worse; kept to quantify the §6 claim
      // that transversal vertical SWAPs are the right unit move.
      for (std::int32_t c = 0; c < m; c += 2) em.try_swap(vert[s][c]);
      em.next_layer();
      for (std::int32_t c = 1; c < m; c += 2) em.try_swap(vert[s][c]);
    }
  };

  run_unit_qft(m, ops);
  return std::move(em).finish();
}

}  // namespace

MappedCircuit map_qft_lattice(std::int32_t m, const LatticeMapperOptions& opts,
                              verify::EmitAudit* audit) {
  require(m >= 2, "map_qft_lattice: m >= 2");
  return map_qft_row_units(make_lattice_surgery_rotated(m), m, opts, audit);
}

MappedCircuit map_qft_grid2d(std::int32_t m, const LatticeMapperOptions& opts,
                             verify::EmitAudit* audit) {
  require(m >= 2, "map_qft_grid2d: m >= 2");
  return map_qft_row_units(make_grid(m, m), m, opts, audit);
}

}  // namespace qfto
