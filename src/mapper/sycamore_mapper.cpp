#include "mapper/sycamore_mapper.hpp"

#include "arch/sycamore.hpp"
#include "mapper/emitter.hpp"
#include "mapper/line_engine.hpp"
#include "mapper/two_line_ie.hpp"
#include "mapper/unit_driver.hpp"

namespace qfto {

std::int64_t sycamore_gate_reservation(std::int32_t m) {
  // n(n-1)/2 CPHASEs and n Hs, plus the SWAP stream: two per CPHASE, since
  // every inter-unit QFT-IE moves both lines past each other, and O(m) per
  // unit pair for the unit SWAPs and the IE fix-ups. Measured over even
  // m <= 64 that remainder stays below m^3/4 (about m^3/4 - 1.5 m^2), so the
  // bound covers the stream and over-reserves by under 2% from m = 8 up.
  const std::int64_t n = static_cast<std::int64_t>(m) * m;
  const std::int64_t cphases = n * (n - 1) / 2;
  return cphases + n + 2 * cphases + static_cast<std::int64_t>(m) * m * m / 4;
}

MappedCircuit map_qft_sycamore(std::int32_t m, bool strict_ie,
                               verify::EmitAudit* audit) {
  require(m >= 2 && m % 2 == 0, "map_qft_sycamore: m must be even and >= 2");
  const SycamoreLayout lay{m};
  const CouplingGraph g = make_sycamore(m);
  const std::int32_t n = lay.num_qubits();
  const std::int32_t units = lay.num_units();
  const std::int32_t len = lay.unit_len();

  // Initial mapping: natural order along each unit line, units stacked —
  // logical u*2m + p sits at line position p of unit slot u.
  std::vector<PhysicalQubit> initial(n);
  for (std::int32_t u = 0; u < units; ++u) {
    for (std::int32_t p = 0; p < len; ++p) {
      initial[u * len + p] = lay.unit_pos(u, p);
    }
  }
  QftState state(n);
  LayerEmitter em(g, initial, state, audit);
  em.reserve_gates(sycamore_gate_reservation(m));

  // Physical line of each unit slot (slots are fixed; contents move), with
  // intra-line edges pre-resolved.
  std::vector<Line> lines;
  lines.reserve(static_cast<std::size_t>(units));
  for (std::int32_t u = 0; u < units; ++u) {
    std::vector<PhysicalQubit> nodes(static_cast<std::size_t>(len));
    for (std::int32_t p = 0; p < len; ++p) {
      nodes[static_cast<std::size_t>(p)] = lay.unit_pos(u, p);
    }
    lines.emplace_back(em, std::move(nodes));
  }

  // Cross links between vertically adjacent slots, in line coordinates,
  // resolved once per slot pair. The diagonal matching used by unit_swap —
  // (lower 2c+1 of slot s, upper 2c of slot s+1) — is a subset of these
  // links; keep its handles separately for the 3-step move.
  std::vector<CrossLink> cross;
  for (std::int32_t pa = 1; pa < len; pa += 2) {
    cross.push_back({pa, pa - 1});
    if (pa + 1 < len) cross.push_back({pa, pa + 1});
  }
  std::vector<std::vector<LayerEmitter::EdgeHandle>> vert(
      static_cast<std::size_t>(units - 1));
  std::vector<std::vector<LayerEmitter::EdgeHandle>> diag(
      static_cast<std::size_t>(units - 1));
  for (std::int32_t s = 0; s + 1 < units; ++s) {
    vert[s] = resolve_cross_links(em, lines[s], lines[s + 1], cross);
    for (std::int32_t c = 0; 2 * c + 1 < len; ++c) {
      diag[s].push_back(
          em.resolve_edge(lines[s][2 * c + 1], lines[s + 1][2 * c]));
    }
  }

  UnitOps ops;
  ops.ia = [&](std::int32_t s) { run_line_qft(em, lines[s]); };
  ops.ie = [&](std::int32_t s) {
    // Both units follow the same travel path (synced phases) — the Sycamore
    // regime of §5; the engine's fix-up supplies the equal-position pairs.
    TwoLineIeConfig cfg{0, 0};
    cfg.strict = strict_ie;
    run_two_line_ie(em, lines[s], lines[s + 1], vert[s], cfg);
  };
  ops.unit_swap = [&](std::int32_t s) {
    // 3-step order-preserving unit SWAP across the diagonal matching:
    //   cross matching, intra-unit pair layer in both units, cross matching.
    em.next_layer();
    for (const auto& e : diag[s]) em.try_swap(e);
    em.next_layer();
    for (std::int32_t c = 0; 2 * c + 1 < len; ++c) {
      em.try_swap(lines[s].edge(2 * c));
      em.try_swap(lines[s + 1].edge(2 * c));
    }
    em.next_layer();
    for (const auto& e : diag[s]) em.try_swap(e);
  };

  run_unit_qft(units, ops);
  return std::move(em).finish();
}

}  // namespace qfto
