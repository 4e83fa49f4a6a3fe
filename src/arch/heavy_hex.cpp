#include "arch/heavy_hex.hpp"

#include <algorithm>

namespace qfto {

HeavyHexLayout heavy_hex_layout(std::int32_t n) {
  require(n >= 5 && n % 5 == 0,
          "heavy_hex_layout: paper configuration needs N multiple of 5");
  HeavyHexLayout lay;
  lay.num_qubits = n;
  lay.main_len = 4 * n / 5;
  for (std::int32_t p = 3; p < lay.main_len; p += 4) lay.junctions.push_back(p);
  return lay;
}

HeavyHexLayout heavy_hex_layout_custom(std::int32_t main_len,
                                       std::vector<std::int32_t> junctions) {
  std::sort(junctions.begin(), junctions.end());
  require(std::unique(junctions.begin(), junctions.end()) == junctions.end(),
          "heavy_hex_layout_custom: duplicate junction");
  for (auto p : junctions) {
    require(p >= 0 && p < main_len,
            "heavy_hex_layout_custom: junction off the main line");
  }
  HeavyHexLayout lay;
  lay.main_len = main_len;
  lay.junctions = std::move(junctions);
  lay.num_qubits = main_len + lay.num_dangling();
  return lay;
}

CouplingGraph make_heavy_hex(const HeavyHexLayout& lay) {
  CouplingGraph g("heavy-hex-" + std::to_string(lay.num_qubits),
                  lay.num_qubits);
  for (std::int32_t p = 0; p + 1 < lay.main_len; ++p) {
    g.add_edge(lay.main_node(p), lay.main_node(p + 1));
  }
  for (std::int32_t j = 0; j < lay.num_dangling(); ++j) {
    g.add_edge(lay.main_node(lay.junctions[j]), lay.dangling_node(j));
  }
  // main_node(p) == p and dangling_node(g) == main_len + g, exactly the id
  // scheme the closed form assumes.
  g.set_distance_spec(DistanceSpec::heavy_hex(lay.main_len, lay.junctions));
  return g;
}

HeavyHexDevice make_heavy_hex_device(std::int32_t rows, std::int32_t cols) {
  require(rows >= 1 && cols >= 5 && cols % 4 == 1,
          "make_heavy_hex_device: need rows >= 1, cols = 4k+1 >= 5");
  HeavyHexDevice dev;
  dev.rows = rows;
  dev.cols = cols;
  const std::int32_t bridges_per_gap = (cols - 1) / 4 + 1;
  const std::int32_t n =
      rows * cols + (rows - 1) * bridges_per_gap;
  dev.graph = CouplingGraph(
      "heavy-hex-device-" + std::to_string(rows) + "x" + std::to_string(cols),
      n);
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c + 1 < cols; ++c) {
      dev.graph.add_edge(dev.row_node(r, c), dev.row_node(r, c + 1));
    }
  }
  PhysicalQubit next = rows * cols;
  dev.bridges.resize(std::max(rows - 1, 0));
  for (std::int32_t gap = 0; gap + 1 < rows; ++gap) {
    for (std::int32_t k = 0; k < bridges_per_gap; ++k) {
      const std::int32_t c = 4 * k;
      const PhysicalQubit b = next++;
      dev.bridges[gap].push_back(b);
      dev.graph.add_edge(dev.row_node(gap, c), b);
      dev.graph.add_edge(b, dev.row_node(gap + 1, c));
    }
  }
  return dev;
}

HeavyHexReduction simplify_heavy_hex(const HeavyHexDevice& dev) {
  HeavyHexReduction red;
  // Snake: even rows left->right, odd rows right->left; descend through the
  // bridge at the row end we arrive at (rightmost bridge for even rows,
  // leftmost for odd). All other bridges keep the link to their *upper* row
  // and dangle there.
  for (std::int32_t r = 0; r < dev.rows; ++r) {
    const bool l2r = (r % 2 == 0);
    for (std::int32_t i = 0; i < dev.cols; ++i) {
      const std::int32_t c = l2r ? i : dev.cols - 1 - i;
      red.main_line.push_back(dev.row_node(r, c));
    }
    if (r + 1 < dev.rows) {
      const std::int32_t exit_col = l2r ? dev.cols - 1 : 0;
      const std::size_t exit_bridge_idx = l2r ? dev.bridges[r].size() - 1 : 0;
      red.main_line.push_back(dev.bridges[r][exit_bridge_idx]);
      // Remaining bridges of this gap dangle off the upper row.
      for (std::size_t k = 0; k < dev.bridges[r].size(); ++k) {
        if (k == exit_bridge_idx) continue;
        const std::int32_t c = static_cast<std::int32_t>(4 * k);
        require(c != exit_col, "simplify_heavy_hex: bridge layout broken");
        // Position of (r, c) in the snake built so far.
        const std::int32_t pos =
            r * (dev.cols + 1) + (l2r ? c : dev.cols - 1 - c);
        red.dangling.push_back({pos, dev.bridges[r][k]});
      }
    }
  }
  std::sort(red.dangling.begin(), red.dangling.end());
  return red;
}

}  // namespace qfto
