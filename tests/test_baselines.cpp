#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "arch/grid.hpp"
#include "arch/heavy_hex.hpp"
#include "arch/lattice_surgery.hpp"
#include "arch/latency_model.hpp"
#include "arch/line.hpp"
#include "arch/sycamore.hpp"
#include "baseline/lnn_baseline.hpp"
#include "baseline/sabre.hpp"
#include "baseline/satmap.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/scheduler.hpp"
#include "circuit/stats.hpp"
#include "mapper/lnn_mapper.hpp"
#include "verify/equivalence.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace {

// ---------------------------------------------------------------- SABRE ----

struct SabreCase {
  std::string name;
  CouplingGraph graph;
  std::int32_t n;  // QFT size
};

std::vector<SabreCase> sabre_cases() {
  std::vector<SabreCase> cases;
  cases.push_back({"line8", make_line(8), 8});
  cases.push_back({"grid3x3", make_grid(3, 3), 9});
  cases.push_back({"sycamore4", make_sycamore(4), 16});
  cases.push_back({"heavyhex10", make_heavy_hex(heavy_hex_layout(10)), 10});
  cases.push_back({"latticefull4", make_lattice_surgery_full(4), 16});
  return cases;
}

class SabreOverArchs : public ::testing::TestWithParam<int> {};

TEST_P(SabreOverArchs, ProducesValidQftMapping) {
  const SabreCase c = sabre_cases()[GetParam()];
  SabreOptions opts;
  opts.trials = 2;
  const MappedCircuit mc = sabre_route(qft_logical(c.n), c.graph, opts);
  const auto r = check_qft_mapping(mc, c.graph);
  ASSERT_TRUE(r.ok) << c.name << ": " << r.error;
  EXPECT_EQ(r.counts.cphase, qft_pair_count(c.n));
}

TEST_P(SabreOverArchs, UnitaryEquivalenceSmall) {
  const SabreCase c = sabre_cases()[GetParam()];
  if (c.n > 10) GTEST_SKIP() << "simulation too large";
  SabreOptions opts;
  opts.trials = 1;
  const MappedCircuit mc = sabre_route(qft_logical(c.n), c.graph, opts);
  EXPECT_LT(mapped_equivalence_error(mc), 1e-9) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Archs, SabreOverArchs, ::testing::Range(0, 5));

TEST(Sabre, NoSwapsNeededWhenAllAdjacent) {
  // QFT-2 on a 2-node line: never needs a SWAP.
  const CouplingGraph g = make_line(2);
  const MappedCircuit mc = sabre_route(qft_logical(2), g);
  EXPECT_EQ(count_gates(mc.circuit).swap, 0);
}

TEST(Sabre, SeedChangesOutcome) {
  // Fig. 27: SABRE output varies with the random seed.
  const CouplingGraph g = make_grid(2, 2);
  const Circuit qft = qft_logical(4);
  std::set<std::string> outputs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    outputs.insert(sabre_route_single(qft, g, seed).circuit.to_string());
  }
  EXPECT_GT(outputs.size(), 1u);
}

TEST(Sabre, MultiTrialNotWorseThanSingle) {
  const CouplingGraph g = make_grid(3, 3);
  const Circuit qft = qft_logical(9);
  SabreOptions one;
  one.trials = 1;
  SabreOptions five;
  five.trials = 5;
  const auto d1 = circuit_depth(sabre_route(qft, g, one).circuit);
  const auto d5 = circuit_depth(sabre_route(qft, g, five).circuit);
  EXPECT_LE(d5, d1);
}

TEST(Sabre, RelaxedDagOptionStillValid) {
  const CouplingGraph g = make_grid(3, 3);
  SabreOptions opts;
  opts.use_relaxed_dag = true;
  opts.trials = 2;
  const MappedCircuit mc = sabre_route(qft_logical(9), g, opts);
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LT(mapped_equivalence_error(mc), 1e-9);
}

TEST(Sabre, RejectsDisconnectedGraph) {
  CouplingGraph g("disc", 4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW(sabre_route(qft_logical(4), g), std::invalid_argument);
}

TEST(Sabre, HandlesNonQftCircuits) {
  // SABRE is a general router: a CNOT+RZ circuit routes fine (validated by
  // simulation rather than the QFT checker).
  Circuit c(4);
  c.append(Gate::h(0));
  c.append(Gate::cnot(0, 3));
  c.append(Gate::rz(3, 0.3));
  c.append(Gate::cnot(1, 2));
  c.append(Gate::cnot(0, 2));
  const CouplingGraph g = make_line(4);
  const MappedCircuit mc = sabre_route(c, g);
  EXPECT_LT(mapped_equivalence_error(mc, 4, 0x5eed, &c), 1e-9);
}

// ------------------------------------------------------------- LNN path ----

TEST(LnnBaseline, SnakeOnLatticeIsValid) {
  for (int m : {3, 4, 5}) {
    const CouplingGraph g = make_lattice_surgery_full(m);
    const auto path = lattice_snake_path(m);
    const MappedCircuit mc = map_qft_on_path(g, path);
    const auto r = check_qft_mapping(mc, g, lattice_latency(g));
    ASSERT_TRUE(r.ok) << "m=" << m << ": " << r.error;
    EXPECT_EQ(r.counts.cphase, qft_pair_count(m * m));
  }
}

TEST(LnnBaseline, SnakePathUsesOnlySlowLinks) {
  const int m = 4;
  const CouplingGraph g = make_lattice_surgery_full(m);
  const auto path = lattice_snake_path(m);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_EQ(g.link_type(path[i], path[i + 1]), LinkType::kCnotOnly);
  }
}

TEST(LnnBaseline, WeightedDepthWorseThanUnitAware) {
  // §2.3 discussion: on lattice surgery the Hamiltonian-path LNN pays slow
  // SWAPs everywhere; the unit-aware mapper must beat it in weighted depth.
  const int m = 6;
  const CouplingGraph full = make_lattice_surgery_full(m);
  const auto lnn =
      check_qft_mapping(map_qft_on_path(full, lattice_snake_path(m)), full,
                        lattice_latency(full));
  ASSERT_TRUE(lnn.ok) << lnn.error;

  const CouplingGraph rot = make_lattice_surgery_rotated(m);
  // (compare against our mapper in bench; here assert the LNN weighted depth
  // exceeds its own unit-latency depth by the slow-swap factor's signature)
  const auto lnn_unit = check_qft_mapping(
      map_qft_on_path(full, lattice_snake_path(m)), full, unit_latency);
  EXPECT_GT(lnn.depth, 3 * lnn_unit.depth);
}

TEST(LnnBaseline, RejectsBrokenPath) {
  const CouplingGraph g = make_line(4);
  EXPECT_THROW(map_qft_on_path(g, {0, 2, 1, 3}), std::invalid_argument);
}

// --------------------------------------------------------------- SATMAP ----

TEST(Satmap, SolvesQft2OnLine) {
  const CouplingGraph g = make_line(2);
  SatmapOptions opts;
  opts.time_budget_seconds = 20.0;
  const SatmapResult r = satmap_route(qft_logical(2), g, opts);
  ASSERT_TRUE(r.solved);
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;
  EXPECT_EQ(r.swaps, 0);
  EXPECT_EQ(chk.depth, 3);  // H, CP, H is depth-optimal
}

TEST(Satmap, SolvesQft3OnLineOptimally) {
  const CouplingGraph g = make_line(3);
  SatmapOptions opts;
  opts.time_budget_seconds = 30.0;
  const SatmapResult r = satmap_route(qft_logical(3), g, opts);
  ASSERT_TRUE(r.solved);
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;
  EXPECT_LT(mapped_equivalence_error(r.mapped), 1e-9);
}

TEST(Satmap, SolvesQft4OnGrid) {
  // The Table 1 "2*2 Sycamore" scale. SATMAP found depth 10 / 3 SWAPs there.
  const CouplingGraph g = make_grid(2, 2);
  SatmapOptions opts;
  opts.time_budget_seconds = 60.0;
  const SatmapResult r = satmap_route(qft_logical(4), g, opts);
  ASSERT_TRUE(r.solved) << "timed out";
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;
  EXPECT_LT(mapped_equivalence_error(r.mapped), 1e-9);
  EXPECT_LE(r.swaps, 4);
}

TEST(Satmap, PinnedOptimaOnLineAndGrid) {
  // Proven optima past the n <= 4 cases above: minimal layers T and
  // minimal SWAP count, plus the verified depth on the line. A solver change
  // may pick a different equally-optimal schedule, but none of these numbers
  // may move. On the 2x3 grid, schedules with the same T and SWAP count
  // verify at depth 16 or 17 depending on which one is extracted, so its
  // depth is not pinned (depth 0 below).
  struct Case {
    const char* name;
    std::int32_t n;
    CouplingGraph graph;
    std::int32_t layers;
    std::int64_t swaps;
    std::int32_t depth;
  };
  const std::vector<Case> cases = {
      {"line5", 5, make_line(5), 9, 6, 14},
      {"line6", 6, make_line(6), 11, 11, 18},
      {"line7", 7, make_line(7), 13, 17, 22},
      {"grid2x3", 6, make_grid(2, 3), 11, 6, 0},
  };
  for (const Case& c : cases) {
    SatmapOptions opts;
    opts.time_budget_seconds = 120.0;
    const SatmapResult r = satmap_route(qft_logical(c.n), c.graph, opts);
    ASSERT_TRUE(r.solved) << c.name << " timed out";
    const auto chk = check_qft_mapping(r.mapped, c.graph);
    ASSERT_TRUE(chk.ok) << c.name << ": " << chk.error;
    EXPECT_EQ(r.layers, c.layers) << c.name;
    EXPECT_EQ(r.swaps, c.swaps) << c.name;
    EXPECT_EQ(chk.counts.swap, c.swaps) << c.name;
    if (c.depth > 0) EXPECT_EQ(chk.depth, c.depth) << c.name;
  }
}

TEST(Satmap, TimesOutOnLargerInstances) {
  // The Table 1 behaviour for >= 16 qubits under a tight budget.
  const CouplingGraph g = make_sycamore(4);
  SatmapOptions opts;
  opts.time_budget_seconds = 0.5;
  const SatmapResult r = satmap_route(qft_logical(16), g, opts);
  EXPECT_FALSE(r.solved);
  EXPECT_TRUE(r.timed_out);
}

TEST(Satmap, IncrementalMatchesMonolithicOnOutcomes) {
  // The acceptance bar for the incremental rewrite: bit-compatible verdicts,
  // minimal T and minimal SWAP count against the re-encode-per-probe oracle,
  // on every instance CI can afford to solve both ways.
  struct Case {
    std::int32_t n;
    CouplingGraph graph;
  };
  const std::vector<Case> cases = {
      {2, make_line(2)},    {3, make_line(3)},    {4, make_line(4)},
      {4, make_grid(2, 2)}, {5, make_line(5)},
      // Spare physical cells (n < np): movement may slide a qubit into an
      // empty neighbour instead of exchanging with an occupant.
      {3, make_grid(2, 2)}, {5, make_grid(2, 3)},
  };
  for (const Case& c : cases) {
    SatmapOptions inc;
    inc.time_budget_seconds = 120.0;
    SatmapOptions mono = inc;
    mono.incremental = false;
    const SatmapResult a = satmap_route(qft_logical(c.n), c.graph, inc);
    const SatmapResult b = satmap_route(qft_logical(c.n), c.graph, mono);
    ASSERT_TRUE(a.solved) << "incremental TLE at n=" << c.n;
    ASSERT_TRUE(b.solved) << "monolithic TLE at n=" << c.n;
    EXPECT_EQ(a.layers, b.layers) << "minimal T diverged at n=" << c.n;
    EXPECT_EQ(a.swaps, b.swaps) << "minimal SWAPs diverged at n=" << c.n;
    const auto chk_a = check_qft_mapping(a.mapped, c.graph);
    const auto chk_b = check_qft_mapping(b.mapped, c.graph);
    ASSERT_TRUE(chk_a.ok) << chk_a.error;
    ASSERT_TRUE(chk_b.ok) << chk_b.error;
    EXPECT_EQ(chk_a.counts.swap, chk_b.counts.swap);
  }
}

TEST(Satmap, SpareCellSlidesExtractValidCircuits) {
  // Regression: with n < np the model may move a qubit into an *empty*
  // physical cell. extract() used to emit such a slide only when it went
  // toward a higher physical id (the paired-transposition dedup), silently
  // teleporting down-moves and corrupting the mapped circuit.
  for (const bool incremental : {true, false}) {
    for (const bool minimize : {true, false}) {
      const CouplingGraph g = make_grid(2, 2);
      SatmapOptions opts;
      opts.time_budget_seconds = 120.0;
      opts.incremental = incremental;
      opts.minimize_swaps = minimize;
      const SatmapResult r = satmap_route(qft_logical(3), g, opts);
      ASSERT_TRUE(r.solved) << "inc=" << incremental << " min=" << minimize;
      const auto chk = check_qft_mapping(r.mapped, g);
      ASSERT_TRUE(chk.ok) << "inc=" << incremental << " min=" << minimize
                          << ": " << chk.error;
      EXPECT_LT(mapped_equivalence_error(r.mapped), 1e-9)
          << "inc=" << incremental << " min=" << minimize;
    }
  }
}

TEST(Satmap, DpllBackendSolvesTheSmallestInstances) {
  // The reference backend is exponentially weaker, but must agree with CDCL
  // where it reaches: the differential value of a second registered engine.
  const CouplingGraph g = make_line(3);
  SatmapOptions opts;
  opts.time_budget_seconds = 60.0;
  opts.solver = "dpll";
  const SatmapResult r = satmap_route(qft_logical(3), g, opts);
  ASSERT_TRUE(r.solved) << "dpll timed out on QFT-3";
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;

  SatmapOptions cdcl_opts;
  cdcl_opts.time_budget_seconds = 60.0;
  const SatmapResult c = satmap_route(qft_logical(3), g, cdcl_opts);
  ASSERT_TRUE(c.solved);
  EXPECT_EQ(r.layers, c.layers);
  EXPECT_EQ(r.swaps, c.swaps);
}

TEST(Satmap, UnknownSolverBackendThrows) {
  SatmapOptions opts;
  opts.solver = "no-such-backend";
  EXPECT_THROW(satmap_route(qft_logical(2), make_line(2), opts),
               std::invalid_argument);
}

TEST(Satmap, SurfacesSolverStats) {
  const CouplingGraph g = make_line(3);
  SatmapOptions opts;
  opts.time_budget_seconds = 60.0;
  sat::SolverStats sink;
  opts.stats_out = &sink;
  const SatmapResult r = satmap_route(qft_logical(3), g, opts);
  ASSERT_TRUE(r.solved);
  EXPECT_GE(r.stats.solve_calls, 2) << "deepening plus swap minimization";
  EXPECT_GT(r.stats.decisions, 0);
  EXPECT_GT(r.stats.clauses, 0);
  EXPECT_EQ(sink.solve_calls, r.stats.solve_calls);
  EXPECT_EQ(sink.conflicts, r.stats.conflicts);
}

TEST(Satmap, DumpCnfExportsTheInFlightInstance) {
  for (const bool incremental : {true, false}) {
    const std::string path = ::testing::TempDir() + "satmap_tle_" +
                             (incremental ? "inc" : "mono") + ".cnf";
    SatmapOptions opts;
    opts.time_budget_seconds = 0.5;  // certain TLE on QFT-16 / sycamore
    opts.incremental = incremental;
    opts.minimize_swaps = false;
    opts.dump_cnf_path = path;
    const SatmapResult r =
        satmap_route(qft_logical(16), make_sycamore(4), opts);
    EXPECT_TRUE(r.timed_out);
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no dump at " << path;
    std::string line;
    bool has_problem_line = false;
    while (std::getline(in, line)) {
      if (line.rfind("p cnf ", 0) == 0) {
        has_problem_line = true;
        break;
      }
    }
    EXPECT_TRUE(has_problem_line) << path << " is not DIMACS";
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace qfto
