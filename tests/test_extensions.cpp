// Tests for the extension modules: the heavy-hex device reduction
// (Appendix 1), the fidelity model, and the threaded simulator path.
#include <gtest/gtest.h>

#include "arch/heavy_hex.hpp"
#include "arch/lattice_surgery.hpp"
#include "arch/latency_model.hpp"
#include "baseline/sabre.hpp"
#include "circuit/qft_spec.hpp"
#include "common/prng.hpp"
#include "mapper/heavy_hex_mapper.hpp"
#include "mapper/lattice_mapper.hpp"
#include "sim/statevector.hpp"
#include "verify/equivalence.hpp"
#include "verify/fidelity.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace {

// ------------------------------------ heavy-hex device & reduction ---------

TEST(HeavyHexDevice, StructureCounts) {
  const HeavyHexDevice dev = make_heavy_hex_device(3, 9);
  // 3 rows * 9 + 2 gaps * 3 bridges.
  EXPECT_EQ(dev.graph.num_qubits(), 27 + 6);
  EXPECT_TRUE(dev.graph.connected());
  EXPECT_EQ(dev.bridges.size(), 2u);
  EXPECT_EQ(dev.bridges[0].size(), 3u);
  // Bridge 0 of gap 0 connects (0,0) and (1,0).
  EXPECT_TRUE(dev.graph.adjacent(dev.row_node(0, 0), dev.bridges[0][0]));
  EXPECT_TRUE(dev.graph.adjacent(dev.bridges[0][0], dev.row_node(1, 0)));
}

TEST(HeavyHexDevice, RejectsBadShape) {
  EXPECT_THROW(make_heavy_hex_device(2, 8), std::invalid_argument);
  EXPECT_THROW(make_heavy_hex_device(0, 9), std::invalid_argument);
}

TEST(HeavyHexReductionTest, SnakeIsContiguousAndCoversEverything) {
  const HeavyHexDevice dev = make_heavy_hex_device(3, 9);
  const HeavyHexReduction red = simplify_heavy_hex(dev);
  // Main line contiguity on the device graph.
  for (std::size_t i = 0; i + 1 < red.main_line.size(); ++i) {
    EXPECT_TRUE(dev.graph.adjacent(red.main_line[i], red.main_line[i + 1]))
        << i;
  }
  // Every node is on the main line or dangling, exactly once.
  std::vector<int> seen(dev.graph.num_qubits(), 0);
  for (auto p : red.main_line) ++seen[p];
  for (const auto& [pos, node] : red.dangling) {
    ++seen[node];
    // Dangling node is coupled to its junction.
    EXPECT_TRUE(dev.graph.adjacent(red.main_line[pos], node));
  }
  for (auto s : seen) EXPECT_EQ(s, 1);
}

class DeviceSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DeviceSweep, FullDeviceQftMapsAndVerifies) {
  const auto [rows, cols] = GetParam();
  const HeavyHexDevice dev = make_heavy_hex_device(rows, cols);
  const MappedCircuit mc = map_qft_heavy_hex_device(dev);
  const auto r = check_qft_mapping(mc, dev.graph);
  ASSERT_TRUE(r.ok) << "rows=" << rows << " cols=" << cols << ": " << r.error;
  EXPECT_EQ(r.counts.cphase, qft_pair_count(dev.graph.num_qubits()));
  EXPECT_LE(r.depth, 6 * dev.graph.num_qubits() + 40);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DeviceSweep,
                         ::testing::Values(std::pair{1, 5}, std::pair{2, 5},
                                           std::pair{2, 9}, std::pair{3, 9},
                                           std::pair{4, 13}, std::pair{5, 13}));

TEST(HeavyHexDevice, SmallDeviceUnitaryEquivalence) {
  const HeavyHexDevice dev = make_heavy_hex_device(2, 5);  // 10 + 2 = 12
  const MappedCircuit mc = map_qft_heavy_hex_device(dev);
  EXPECT_LT(mapped_equivalence_error(mc, 2), 1e-9);
}

// ------------------------------------------------------ fidelity model -----

TEST(Fidelity, MoreGatesMeanLowerFidelity) {
  Circuit small(2), big(2);
  small.append(Gate::h(0));
  for (int i = 0; i < 50; ++i) big.append(Gate::swap(0, 1));
  EXPECT_GT(log10_fidelity(small), log10_fidelity(big));
}

TEST(Fidelity, DepthTermMatters) {
  // Same gates, but serialized on one wire vs spread over many.
  Circuit serial(2), parallel(8);
  for (int i = 0; i < 8; ++i) serial.append(Gate::h(i % 2));
  for (int i = 0; i < 8; ++i) parallel.append(Gate::h(i));
  NoiseModel nm;
  nm.coherence_cycles = 10;  // make the depth term dominant
  EXPECT_GT(log10_fidelity(parallel, nm), log10_fidelity(serial, nm));
}

TEST(Fidelity, OursBeatsSabreInDepthDominatedRegime) {
  // The paper's noise argument quantified. In the decoherence-limited (FT)
  // regime — small gate errors, finite idle-coherence horizon — our linear
  // depth wins even though this closed-loop realization spends more SWAPs
  // than SABRE (EXPERIMENTS.md quantifies the SWAP-count deviation).
  const int m = 10;
  const CouplingGraph rot = make_lattice_surgery_rotated(m);
  const CouplingGraph full = make_lattice_surgery_full(m);
  const MappedCircuit ours = map_qft_lattice(m);
  SabreOptions opts;
  opts.trials = 1;
  const MappedCircuit sabre = sabre_route(qft_logical(m * m), full, opts);

  NoiseModel ft;
  ft.error_1q = 1e-7;
  ft.error_2q = 1e-6;
  ft.coherence_cycles = 500;
  EXPECT_GT(log10_fidelity(ours.circuit, ft, LatencyModel::lattice(rot)),
            log10_fidelity(sabre.circuit, ft));

  // Conversely, a gate-error-dominated NISQ model rewards SABRE's smaller
  // SWAP budget on this backend — the trade-off is real and documented.
  NoiseModel nisq;  // defaults: e2 = 5e-3 dominates
  EXPECT_LT(log10_fidelity(ours.circuit, nisq, LatencyModel::lattice(rot)),
            log10_fidelity(sabre.circuit, nisq));
}

// --------------------------------------------------- threaded simulator ----

TEST(ThreadedSim, MatchesSerialOnLargeRegister) {
  const std::int32_t n = 19;  // 2^19 amplitudes: above the parallel threshold
  Circuit c(n);
  Xoshiro256ss rng(3);
  for (int i = 0; i < 60; ++i) {
    const auto q0 = static_cast<std::int32_t>(rng.uniform(n));
    switch (rng.uniform(3)) {
      case 0: c.append(Gate::h(q0)); break;
      case 1: c.append(Gate::rz(q0, rng.uniform_double())); break;
      default: {
        auto q1 = static_cast<std::int32_t>(rng.uniform(n));
        if (q1 == q0) q1 = (q0 + 1) % n;
        c.append(Gate::cphase(q0, q1, rng.uniform_double()));
      }
    }
  }
  StateVector serial(n);
  serial.apply(c);

  StateVector::set_num_threads(4);
  StateVector threaded(n);
  threaded.apply(c);
  StateVector::set_num_threads(1);

  EXPECT_GT(StateVector::overlap(serial, threaded), 1.0 - 1e-12);
  // Exact amplitude agreement, not just overlap:
  for (std::uint64_t i = 0; i < serial.dim(); i += 4097) {
    EXPECT_NEAR(std::abs(serial.amplitudes()[i] - threaded.amplitudes()[i]),
                0.0, 1e-12);
  }
}

TEST(ThreadedSim, ThreadCountValidation) {
  EXPECT_THROW(StateVector::set_num_threads(0), std::invalid_argument);
  StateVector::set_num_threads(2);
  EXPECT_EQ(StateVector::num_threads(), 2);
  StateVector::set_num_threads(1);
}

}  // namespace
}  // namespace qfto
