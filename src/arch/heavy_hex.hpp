// IBM heavy-hex model (§4, Appendix 1). The paper deletes links from the
// heavy-hex lattice to obtain a *simplified coupling graph*: one main line
// plus dangling points hanging off "T junctions". In the evaluated
// configuration there is one dangling qubit per group of five (four qubits on
// the main line, one dangling), i.e. a junction every fourth main-line node.
#pragma once

#include <vector>

#include "arch/coupling_graph.hpp"

namespace qfto {

struct HeavyHexLayout {
  std::int32_t num_qubits = 0;   // N (multiple of 5 in the paper's sweep)
  std::int32_t main_len = 0;     // N1 = number of main-line nodes
  /// Main-line positions that carry a dangling neighbor, ascending.
  std::vector<std::int32_t> junctions;

  std::int32_t num_dangling() const {
    return static_cast<std::int32_t>(junctions.size());
  }
  /// Physical id of main-line position p (0-based from the left end).
  PhysicalQubit main_node(std::int32_t p) const { return p; }
  /// Physical id of the g-th dangling node.
  PhysicalQubit dangling_node(std::int32_t g) const { return main_len + g; }
};

/// Paper configuration: N multiple of 5, groups of five = four main-line
/// qubits + one dangling attached to the last main-line qubit of the group
/// (main positions 3, 7, 11, ...).
HeavyHexLayout heavy_hex_layout(std::int32_t n);

/// General configuration from explicit junction positions on a main line of
/// length `main_len` (used by property tests to stress irregular spacings).
HeavyHexLayout heavy_hex_layout_custom(std::int32_t main_len,
                                       std::vector<std::int32_t> junctions);

CouplingGraph make_heavy_hex(const HeavyHexLayout& lay);

/// The full heavy-hex device (Fig. 4(b)/Fig. 20 left): `rows` lines of
/// `cols` qubits each, joined by bridge qubits every four columns. We place
/// bridges so both row ends carry one (cols must be ≡ 1 mod 4, like IBM's
/// 127-qubit devices with 15-qubit rows), which is what lets the Appendix-1
/// reduction snake turn at row ends.
struct HeavyHexDevice {
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  CouplingGraph graph;
  /// bridge_node(gap, k): the k-th bridge between row `gap` and `gap`+1.
  std::vector<std::vector<PhysicalQubit>> bridges;

  PhysicalQubit row_node(std::int32_t r, std::int32_t c) const {
    return r * cols + c;
  }
};

HeavyHexDevice make_heavy_hex_device(std::int32_t rows, std::int32_t cols);

/// Appendix-1 reduction: delete links so the device becomes one main line
/// with dangling points (Fig. 20 right). The main line snakes through the
/// rows, descending through one end bridge per gap; every other bridge keeps
/// only its upper link and dangles.
struct HeavyHexReduction {
  /// Physical nodes of the main line, in line order.
  std::vector<PhysicalQubit> main_line;
  /// (main-line position of the junction, dangling physical node), sorted by
  /// position.
  std::vector<std::pair<std::int32_t, PhysicalQubit>> dangling;
};

HeavyHexReduction simplify_heavy_hex(const HeavyHexDevice& dev);

}  // namespace qfto
