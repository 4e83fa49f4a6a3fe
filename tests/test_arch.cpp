#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "arch/grid.hpp"
#include "arch/heavy_hex.hpp"
#include "arch/lattice_surgery.hpp"
#include "arch/latency_model.hpp"
#include "arch/line.hpp"
#include "arch/sycamore.hpp"

namespace qfto {
namespace {

TEST(CouplingGraph, BasicEdges) {
  CouplingGraph g("g", 3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(1, 0));
  EXPECT_FALSE(g.adjacent(0, 2));
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_THROW(g.add_edge(0, 1), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5), std::invalid_argument);
}

TEST(CouplingGraph, LinkTypes) {
  CouplingGraph g("g", 3);
  g.add_edge(0, 1, LinkType::kFast);
  g.add_edge(1, 2, LinkType::kCnotOnly);
  EXPECT_EQ(g.link_type(0, 1), LinkType::kFast);
  EXPECT_EQ(g.link_type(2, 1), LinkType::kCnotOnly);
  EXPECT_FALSE(g.link_type(0, 2).has_value());
}

TEST(CouplingGraph, DegreeMatchesNeighborList) {
  const CouplingGraph g = make_grid(3, 3);
  for (PhysicalQubit q = 0; q < g.num_qubits(); ++q) {
    EXPECT_EQ(g.degree(q),
              static_cast<std::int32_t>(g.neighbors(q).size()));
  }
}

TEST(CouplingGraph, AdjacencyAgreesWithNeighborLists) {
  // The CSR fast path and the neighbor lists are maintained together; a
  // full cross-check over a link-typed graph locks them in sync.
  const CouplingGraph g = make_lattice_surgery_full(4);
  for (PhysicalQubit a = 0; a < g.num_qubits(); ++a) {
    for (PhysicalQubit b = 0; b < g.num_qubits(); ++b) {
      const auto& na = g.neighbors(a);
      const bool in_list = std::find(na.begin(), na.end(), b) != na.end();
      EXPECT_EQ(g.adjacent(a, b), in_list) << a << "," << b;
      EXPECT_EQ(g.link_type(a, b).has_value(), in_list) << a << "," << b;
    }
  }
}

TEST(CouplingGraph, DistanceOracleConcurrentFirstUse) {
  // Regression for the PR-2 lazy-init data race, re-targeted at the oracle
  // redesign: map_qft_batch maps on a shared graph from a thread pool, so
  // the oracle's first construction (double-checked in distances()) and its
  // internal row cache must both be race-free. Under ThreadSanitizer an
  // unsynchronized path reports here; without it the test still
  // cross-checks every value against a serially-built baseline.
  const CouplingGraph shared = make_lattice_surgery_rotated(8);
  const CouplingGraph reference = make_lattice_surgery_rotated(8);
  const auto expected = reference.distances().eager_matrix_for_tests();

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&shared, &expected, &mismatches, t]() {
      const std::int32_t n = shared.num_qubits();
      for (PhysicalQubit a = t; a < n; a += kThreads) {
        for (PhysicalQubit b = 0; b < n; ++b) {
          if (shared.distance(a, b) != expected[a][b]) ++mismatches;
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(shared.connected());
}

TEST(CouplingGraph, CopyAndMoveKeepQueriesIntact) {
  CouplingGraph g("g", 4);
  g.add_edge(0, 1, LinkType::kFast);
  g.add_edge(1, 2, LinkType::kCnotOnly);
  (void)g.distance(0, 2);  // build the oracle; copies must not share it

  const CouplingGraph copy = g;
  EXPECT_TRUE(copy.adjacent(0, 1));
  EXPECT_EQ(copy.link_type(1, 2), LinkType::kCnotOnly);
  EXPECT_EQ(copy.distance(0, 2), 2);

  CouplingGraph moved = std::move(g);
  EXPECT_TRUE(moved.adjacent(1, 2));
  EXPECT_EQ(moved.link_type(0, 1), LinkType::kFast);
  EXPECT_EQ(moved.distance(0, 2), 2);
}

TEST(CouplingGraph, DistancesAndConnectivity) {
  const CouplingGraph line = make_line(5);
  EXPECT_EQ(line.distance(0, 4), 4);
  EXPECT_EQ(line.distance(2, 2), 0);
  EXPECT_TRUE(line.connected());

  CouplingGraph split("split", 4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  EXPECT_FALSE(split.connected());
  EXPECT_EQ(split.distance(0, 3), -1);
}

TEST(Line, Structure) {
  const CouplingGraph g = make_line(4);
  EXPECT_EQ(g.num_qubits(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.adjacent(1, 2));
  EXPECT_FALSE(g.adjacent(0, 2));
}

TEST(Grid, Structure) {
  const CouplingGraph g = make_grid(3, 4);
  EXPECT_EQ(g.num_qubits(), 12);
  // 3*3 horizontal per row * 3 rows? horizontal: rows*(cols-1)=9,
  // vertical: (rows-1)*cols=8.
  EXPECT_EQ(g.num_edges(), 17);
  EXPECT_TRUE(g.adjacent(grid_node(0, 0, 4), grid_node(0, 1, 4)));
  EXPECT_TRUE(g.adjacent(grid_node(0, 0, 4), grid_node(1, 0, 4)));
  EXPECT_FALSE(g.adjacent(grid_node(0, 0, 4), grid_node(1, 1, 4)));
}

TEST(Sycamore, UnitLineIsPhysicalPath) {
  for (int m : {2, 4, 6}) {
    const CouplingGraph g = make_sycamore(m);
    const SycamoreLayout lay{m};
    EXPECT_TRUE(g.connected());
    for (int u = 0; u < lay.num_units(); ++u) {
      for (int p = 0; p + 1 < lay.unit_len(); ++p) {
        EXPECT_TRUE(g.adjacent(lay.unit_pos(u, p), lay.unit_pos(u, p + 1)))
            << "unit " << u << " pos " << p << " m=" << m;
      }
    }
  }
}

TEST(Sycamore, CrossUnitLinksMatchPredicate) {
  const int m = 4;
  const CouplingGraph g = make_sycamore(m);
  const SycamoreLayout lay{m};
  for (int u = 0; u + 1 < lay.num_units(); ++u) {
    for (int pa = 0; pa < lay.unit_len(); ++pa) {
      for (int pb = 0; pb < lay.unit_len(); ++pb) {
        const bool linked =
            g.adjacent(lay.unit_pos(u, pa), lay.unit_pos(u + 1, pb));
        EXPECT_EQ(linked, sycamore_cross_link(pa, pb))
            << "pa=" << pa << " pb=" << pb;
      }
    }
  }
}

TEST(Sycamore, NoSameLinePositionCrossLink) {
  // §5: two vertices at the same (line) position in adjacent units are not
  // directly connected.
  const SycamoreLayout lay{4};
  const CouplingGraph g = make_sycamore(4);
  for (int p = 0; p < lay.unit_len(); ++p) {
    EXPECT_FALSE(g.adjacent(lay.unit_pos(0, p), lay.unit_pos(1, p)));
  }
}

TEST(Sycamore, RejectsOddM) {
  EXPECT_THROW(make_sycamore(3), std::invalid_argument);
}

TEST(HeavyHex, PaperLayout) {
  const HeavyHexLayout lay = heavy_hex_layout(10);
  EXPECT_EQ(lay.num_qubits, 10);
  EXPECT_EQ(lay.main_len, 8);
  EXPECT_EQ(lay.num_dangling(), 2);
  EXPECT_EQ(lay.junctions, (std::vector<std::int32_t>{3, 7}));

  const CouplingGraph g = make_heavy_hex(lay);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.num_edges(), 7 + 2);  // main chain + dangling links
  EXPECT_TRUE(g.adjacent(lay.main_node(3), lay.dangling_node(0)));
  EXPECT_FALSE(g.adjacent(lay.dangling_node(0), lay.dangling_node(1)));
}

TEST(HeavyHex, CustomLayoutValidation) {
  EXPECT_NO_THROW(heavy_hex_layout_custom(6, {1, 4}));
  EXPECT_THROW(heavy_hex_layout_custom(6, {7}), std::invalid_argument);
  EXPECT_THROW(heavy_hex_layout(7), std::invalid_argument);
}

TEST(LatticeSurgery, RotatedLinkTypes) {
  const CouplingGraph g = make_lattice_surgery_rotated(3);
  const LatticeLayout lay{3};
  EXPECT_EQ(g.link_type(lay.node(0, 0), lay.node(0, 1)), LinkType::kFast);
  EXPECT_EQ(g.link_type(lay.node(0, 0), lay.node(1, 0)), LinkType::kCnotOnly);
  EXPECT_FALSE(g.adjacent(lay.node(0, 0), lay.node(1, 1)));
  EXPECT_TRUE(g.connected());
}

TEST(LatticeSurgery, FullGraphHasBothFamilies) {
  const CouplingGraph g = make_lattice_surgery_full(3);
  const LatticeLayout lay{3};
  EXPECT_EQ(g.link_type(lay.node(0, 0), lay.node(0, 1)), LinkType::kCnotOnly);
  EXPECT_EQ(g.link_type(lay.node(0, 0), lay.node(1, 1)), LinkType::kFast);
  EXPECT_EQ(g.link_type(lay.node(0, 1), lay.node(1, 0)), LinkType::kFast);
  EXPECT_TRUE(g.connected());
}

TEST(LatencyModel, NisqUniform) {
  const LatencyModel lat = LatencyModel::nisq();
  EXPECT_EQ(lat(Gate::h(0)), 1);
  EXPECT_EQ(lat(Gate::swap(0, 1)), 1);
}

TEST(LatencyModel, LatticeWeights) {
  const CouplingGraph g = make_lattice_surgery_rotated(3);
  const LatticeLayout lay{3};
  const LatencyModel lat = LatencyModel::lattice(g);
  const auto a = lay.node(0, 0), right = lay.node(0, 1), down = lay.node(1, 0);
  EXPECT_EQ(lat(Gate::swap(a, right)), kLsFastSwapDepth);
  EXPECT_EQ(lat(Gate::swap(a, down)), kLsSlowSwapDepth);
  EXPECT_EQ(lat(Gate::cphase(a, down, 0.5)), kLsCphaseDepth);
  EXPECT_EQ(lat(Gate::cnot(a, right)), kLsCnotDepth);
  EXPECT_EQ(lat(Gate::h(a)), 1);
}

TEST(LatencyModel, CyclesOnLinkSkipsTheGraphProbe) {
  const CouplingGraph g = make_lattice_surgery_rotated(3);
  const LatencyModel model = LatencyModel::lattice(g);
  EXPECT_EQ(model.cycles_on_link(GateKind::kSwap, LinkType::kFast),
            kLsFastSwapDepth);
  EXPECT_EQ(model.cycles_on_link(GateKind::kSwap, LinkType::kCnotOnly),
            kLsSlowSwapDepth);
  EXPECT_EQ(model.cycles_on_link(GateKind::kCPhase, LinkType::kCnotOnly),
            kLsCphaseDepth);
  EXPECT_EQ(model.cycles_on_link(GateKind::kH, LinkType::kStandard), 1);
}

TEST(LatencyModel, NonEdgeTwoQubitGateChargedSlow) {
  // Baselines evaluated leniently can emit gates off the link set; the seed
  // charged those the slow-SWAP cost and the model must keep doing so.
  const CouplingGraph g = make_lattice_surgery_rotated(3);
  const LatticeLayout lay{3};
  const LatencyModel model = LatencyModel::lattice(g);
  const Gate far = Gate::swap(lay.node(0, 0), lay.node(2, 2));
  ASSERT_FALSE(g.adjacent(far.q0, far.q1));
  EXPECT_EQ(model.cycles(far), kLsSlowSwapDepth);
}

TEST(LatencyModel, LinkTypedCostRequiresBoundGraph) {
  LatencyModel m;
  EXPECT_THROW(m.set_cost(GateKind::kSwap, LinkType::kFast, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace qfto
