#include "mapper/heavy_hex_mapper.hpp"

#include <stdexcept>

#include "mapper/emitter.hpp"
#include "mapper/line_engine.hpp"

namespace qfto {

namespace {

/// (main-line position of the junction, dangling node), sorted by position.
using DanglingPoints = std::vector<std::pair<std::int32_t, PhysicalQubit>>;

/// The round loop on any physical labelling of a main line with dangling
/// points: `main` lists the main-line nodes of `g` in line order. The canonical
/// layout and the full device both call it, so the device path emits on
/// device ids directly and the fused audit runs on the device graph.
MappedCircuit map_main_line(const CouplingGraph& g,
                            const std::vector<PhysicalQubit>& main,
                            const DanglingPoints& dangling,
                            verify::EmitAudit* audit) {
  const auto main_len = static_cast<std::int32_t>(main.size());
  const auto num_dangle = static_cast<std::int32_t>(dangling.size());
  const std::int32_t n = main_len + num_dangle;
  require(n >= 1, "map_qft_heavy_hex: empty layout");

  // Initial placement (Fig. 10): ascending logical indices along the main
  // line; right after a junction node, the next index goes to its dangling
  // neighbor. Also flattens junction lookup into one table over node ids.
  std::vector<PhysicalQubit> initial;
  initial.reserve(static_cast<std::size_t>(n));
  std::vector<std::int32_t> junction_of(
      static_cast<std::size_t>(g.num_qubits()), -1);
  std::int32_t placed = 0;
  for (std::int32_t p = 0; p < main_len; ++p) {
    initial.push_back(main[p]);
    if (placed < num_dangle && dangling[placed].first == p) {
      initial.push_back(dangling[placed].second);
      junction_of[main[p]] = placed++;
    }
  }
  require(placed == num_dangle,
          "map_qft_heavy_hex: junctions must be distinct main-line "
          "positions in ascending order");

  QftState state(n);
  LayerEmitter em(g, std::move(initial), state, audit);
  std::vector<std::int32_t> junctions;
  junctions.reserve(dangling.size());
  for (const auto& [pos, node] : dangling) junctions.push_back(pos);
  em.reserve_gates(heavy_hex_gate_reservation(main_len, junctions));

  std::vector<std::uint8_t> parked(num_dangle, 0);
  const Line main_line(em, main);

  // Junction <-> dangling edges, resolved once (used every round for both
  // the interaction layer and the parking swaps).
  std::vector<LayerEmitter::EdgeHandle> junction_edge;
  junction_edge.reserve(static_cast<std::size_t>(num_dangle));
  for (const auto& [pos, node] : dangling) {
    junction_edge.push_back(em.resolve_edge(main[pos], node));
  }

  // Veto for movement: a qubit waiting to park must not drift past its
  // junction, and nothing may move through an in-flight parking node.
  auto frozen = [&](PhysicalQubit node) {
    const std::int32_t j = junction_of[node];
    return j >= 0 && !parked[j] &&
           em.occupant(node) == static_cast<LogicalQubit>(j);
  };

  const std::int64_t round_cap = 8 * static_cast<std::int64_t>(n) + 64;
  std::int32_t idle_rounds = 0;
  for (std::int64_t round = 0; !state.all_done(); ++round) {
    if (round > round_cap) {
      throw std::logic_error("map_qft_heavy_hex: round cap exceeded");
    }
    std::int64_t before = em.gates_emitted();

    // Interaction layer. Junction links first (the paper's "extra stops"
    // prioritize CPHASEs with dangling qubits), then the main line, then H.
    em.next_layer();
    for (std::int32_t j = 0; j < num_dangle; ++j) {
      em.try_cphase(junction_edge[j]);
    }
    line_interaction_layer(em, main_line);
    for (std::int32_t j = 0; j < num_dangle; ++j) {
      em.try_h(junction_edge[j].b);
    }

    // Movement layer. Parking swaps first, then LNN movement on the main
    // line (ascending start: the reversal flow of Fig. 3).
    em.next_layer();
    for (std::int32_t j = 0; j < num_dangle; ++j) {
      if (parked[j]) continue;
      const LayerEmitter::EdgeHandle& e = junction_edge[j];
      const LogicalQubit on_main = em.occupant(e.a);
      const LogicalQubit on_dangle = em.occupant(e.b);
      if (on_main == static_cast<LogicalQubit>(j) &&
          state.pair_done(on_main, on_dangle)) {
        if (em.try_swap(e)) parked[j] = 1;
      }
    }
    line_movement_layer(em, main_line, /*ascending=*/true, frozen);

    if (em.gates_emitted() == before) {
      if (++idle_rounds > 3) {
        throw std::logic_error(
            "map_qft_heavy_hex: stalled with " +
            std::to_string(state.pairs_remaining()) + " pairs and " +
            std::to_string(state.selfs_remaining()) + " H gates pending");
      }
    } else {
      idle_rounds = 0;
    }
  }
  return std::move(em).finish();
}

}  // namespace

MappedCircuit map_qft_heavy_hex(const HeavyHexLayout& lay,
                                verify::EmitAudit* audit) {
  std::vector<PhysicalQubit> main(lay.main_len);
  for (std::int32_t p = 0; p < lay.main_len; ++p) main[p] = lay.main_node(p);
  DanglingPoints dangling;
  dangling.reserve(lay.junctions.size());
  for (std::int32_t j = 0; j < lay.num_dangling(); ++j) {
    dangling.emplace_back(lay.junctions[j], lay.dangling_node(j));
  }
  return map_main_line(make_heavy_hex(lay), main, dangling, audit);
}

MappedCircuit map_qft_heavy_hex(std::int32_t n, verify::EmitAudit* audit) {
  return map_qft_heavy_hex(heavy_hex_layout(n), audit);
}

MappedCircuit map_qft_heavy_hex_device(const HeavyHexDevice& dev,
                                       verify::EmitAudit* audit) {
  const HeavyHexReduction red = simplify_heavy_hex(dev);
  return map_main_line(dev.graph, red.main_line, red.dangling, audit);
}

}  // namespace qfto
