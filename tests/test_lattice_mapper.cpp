#include <gtest/gtest.h>

#include "arch/grid.hpp"
#include "arch/lattice_surgery.hpp"
#include "arch/latency_model.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/stats.hpp"
#include "mapper/lattice_mapper.hpp"
#include "verify/equivalence.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace {

class LatticeSweep : public ::testing::TestWithParam<int> {};

TEST_P(LatticeSweep, CheckerInvariants) {
  const int m = GetParam();
  const int n = m * m;
  const MappedCircuit mc = map_qft_lattice(m);
  const CouplingGraph g = make_lattice_surgery_rotated(m);
  const auto r = check_qft_mapping(mc, g, LatencyModel::lattice(g));
  ASSERT_TRUE(r.ok) << "m=" << m << ": " << r.error;
  EXPECT_EQ(r.counts.cphase, qft_pair_count(n));
  EXPECT_EQ(r.counts.h, n);
}

TEST_P(LatticeSweep, LinearWeightedDepth) {
  const int m = GetParam();
  const int n = m * m;
  const MappedCircuit mc = map_qft_lattice(m);
  const CouplingGraph g = make_lattice_surgery_rotated(m);
  const auto r = check_qft_mapping(mc, g, LatencyModel::lattice(g));
  ASSERT_TRUE(r.ok) << r.error;
  // §6 engineering: 5N + O(1) weighted cycles; our closed-loop constant is
  // larger but must stay linear. Generous bound: 20N + O(m).
  EXPECT_LE(r.depth, 20 * n + 60 * m + 80) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Sizes, LatticeSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 10, 12));

class LatticeSim : public ::testing::TestWithParam<int> {};

TEST_P(LatticeSim, UnitaryEquivalence) {
  const int m = GetParam();
  const MappedCircuit mc = map_qft_lattice(m);
  EXPECT_LT(mapped_equivalence_error(mc), 1e-9) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(SmallSizes, LatticeSim, ::testing::Values(2, 3, 4));

TEST(Lattice, PhaseOffsetVariantsAllCorrect) {
  for (int offset : {0, 1}) {
    LatticeMapperOptions opts;
    opts.phase_offset = offset;
    const MappedCircuit mc = map_qft_lattice(5, opts);
    const CouplingGraph g = make_lattice_surgery_rotated(5);
    const auto r = check_qft_mapping(mc, g, LatencyModel::lattice(g));
    ASSERT_TRUE(r.ok) << "offset=" << offset << ": " << r.error;
  }
}

TEST(Lattice, OffsetPhaseBeatsSyncedPhase) {
  // §6/Fig. 16: the bottom unit starting one step late enables equal-column
  // meetings along the travel path; the synced variant must lean on the
  // fix-up and come out deeper.
  const CouplingGraph g = make_lattice_surgery_rotated(8);
  LatticeMapperOptions synced;
  synced.phase_offset = 0;
  const auto off =
      check_qft_mapping(map_qft_lattice(8), g, LatencyModel::lattice(g));
  const auto syn = check_qft_mapping(map_qft_lattice(8, synced), g,
                                     LatencyModel::lattice(g));
  ASSERT_TRUE(off.ok && syn.ok);
  EXPECT_LE(off.depth, syn.depth);
}

TEST(Lattice, WeightedDepthExceedsUnitDepth) {
  // The heterogeneous latency model must actually bite: weighted depth is
  // strictly larger than the naive unit-step count.
  const MappedCircuit mc = map_qft_lattice(6);
  const CouplingGraph g = make_lattice_surgery_rotated(6);
  const auto weighted = check_qft_mapping(mc, g, LatencyModel::lattice(g));
  const auto unit = check_qft_mapping(mc, g);
  ASSERT_TRUE(weighted.ok && unit.ok);
  EXPECT_GT(weighted.depth, unit.depth);
}

TEST(Lattice, StrictIeStillCorrectAndSlower) {
  const CouplingGraph g = make_lattice_surgery_rotated(8);
  LatticeMapperOptions strict;
  strict.strict_ie = true;
  const MappedCircuit mc = map_qft_lattice(8, strict);
  const auto rs = check_qft_mapping(mc, g, LatencyModel::lattice(g));
  ASSERT_TRUE(rs.ok) << rs.error;
  const auto rr =
      check_qft_mapping(map_qft_lattice(8), g, LatencyModel::lattice(g));
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_GT(rs.depth, rr.depth);
}

class Grid2dSweep : public ::testing::TestWithParam<int> {};

TEST_P(Grid2dSweep, AppendixSevenGridBackend) {
  const int m = GetParam();
  const CouplingGraph g = make_grid(m, m);
  const MappedCircuit mc = map_qft_grid2d(m);
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << "m=" << m << ": " << r.error;
  EXPECT_EQ(r.counts.cphase, qft_pair_count(m * m));
  // Uniform-latency depth stays linear in N.
  EXPECT_LE(r.depth, 10 * m * m + 40 * m + 60);
  if (m <= 4) {
    EXPECT_LT(mapped_equivalence_error(mc), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Grid2dSweep,
                         ::testing::Values(2, 3, 4, 6, 8, 10));

TEST(Lattice, SwapCountGrowsQuadratically) {
  // #SWAP is Theta(N^2) = Theta(m^4) on every backend (all-to-all pairs over
  // sqrt(N) average distance); check the growth exponent is ~4 in m.
  const auto s6 = count_gates(map_qft_lattice(6).circuit).swap;
  const auto s12 = count_gates(map_qft_lattice(12).circuit).swap;
  const double ratio = static_cast<double>(s12) / s6;
  EXPECT_GT(ratio, 8.0);   // > m^3 growth
  EXPECT_LT(ratio, 32.0);  // < m^5 growth
}

}  // namespace
}  // namespace qfto
