#include <gtest/gtest.h>

#include <cmath>

#include "arch/latency_model.hpp"
#include "circuit/circuit.hpp"
#include "circuit/inverse.hpp"
#include "circuit/mapped_circuit.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/scheduler.hpp"
#include "circuit/stats.hpp"

namespace qfto {
namespace {

TEST(Gate, Factories) {
  const Gate h = Gate::h(3);
  EXPECT_EQ(h.kind, GateKind::kH);
  EXPECT_FALSE(h.two_qubit());
  EXPECT_EQ(h.q0, 3);
  EXPECT_EQ(h.q1, kInvalidQubit);

  const Gate cp = Gate::cphase(1, 2, 0.5);
  EXPECT_TRUE(cp.two_qubit());
  EXPECT_DOUBLE_EQ(cp.angle, 0.5);

  EXPECT_TRUE(Gate::swap(0, 1).two_qubit());
  EXPECT_TRUE(Gate::cnot(0, 1).two_qubit());
  EXPECT_FALSE(Gate::rz(0, 1.0).two_qubit());
  EXPECT_FALSE(Gate::x(0).two_qubit());
}

TEST(Gate, TouchesAndToString) {
  const Gate cp = Gate::cphase(1, 2, 0.5);
  EXPECT_TRUE(cp.touches(1));
  EXPECT_TRUE(cp.touches(2));
  EXPECT_FALSE(cp.touches(0));
  EXPECT_NE(cp.to_string().find("CP"), std::string::npos);
}

TEST(Circuit, AppendValidation) {
  Circuit c(2);
  EXPECT_NO_THROW(c.append(Gate::h(0)));
  EXPECT_THROW(c.append(Gate::h(2)), std::invalid_argument);
  EXPECT_THROW(c.append(Gate::swap(0, 0)), std::invalid_argument);
  EXPECT_THROW(c.append(Gate::swap(0, 5)), std::invalid_argument);
  EXPECT_EQ(c.size(), 1u);
}

TEST(Circuit, Extend) {
  Circuit a(2), b(2);
  a.append(Gate::h(0));
  b.append(Gate::h(1));
  a.extend(b);
  EXPECT_EQ(a.size(), 2u);
  Circuit wrong(3);
  EXPECT_THROW(a.extend(wrong), std::invalid_argument);
}

TEST(QftSpec, GateCount) {
  for (int n : {1, 2, 3, 8}) {
    const Circuit c = qft_logical(n);
    const GateCounts gc = count_gates(c);
    EXPECT_EQ(gc.h, n);
    EXPECT_EQ(gc.cphase, qft_pair_count(n));
    EXPECT_EQ(gc.swap, 0);
  }
}

TEST(QftSpec, Angles) {
  EXPECT_DOUBLE_EQ(qft_angle(0, 1), M_PI / 2.0);
  EXPECT_DOUBLE_EQ(qft_angle(0, 2), M_PI / 4.0);
  EXPECT_DOUBLE_EQ(qft_angle(3, 5), M_PI / 4.0);
  EXPECT_THROW(qft_angle(2, 2), std::invalid_argument);
}

TEST(Scheduler, SerialChainDepth) {
  Circuit c(2);
  c.append(Gate::h(0));
  c.append(Gate::h(0));
  c.append(Gate::h(1));
  // Two H on wire 0 serialize; H on wire 1 is parallel.
  EXPECT_EQ(circuit_depth(c), 2);
}

TEST(Scheduler, TwoQubitBlocksBothWires) {
  Circuit c(3);
  c.append(Gate::cphase(0, 1, 1.0));
  c.append(Gate::cphase(1, 2, 1.0));
  c.append(Gate::cphase(0, 2, 1.0));
  EXPECT_EQ(circuit_depth(c), 3);
}

TEST(Scheduler, WeightedLatency) {
  Circuit c(2);
  c.append(Gate::swap(0, 1));
  c.append(Gate::cphase(0, 1, 1.0));
  auto lat = [](const Gate& g) -> Cycle {
    return g.kind == GateKind::kSwap ? 6 : 2;
  };
  EXPECT_EQ(schedule_asap_with(c, lat).depth, 8);
}

TEST(Scheduler, LayersGroupByStart) {
  Circuit c(4);
  c.append(Gate::h(0));
  c.append(Gate::h(1));
  c.append(Gate::cphase(0, 1, 1.0));
  c.append(Gate::h(2));
  const Schedule s = schedule_asap(c, LatencyModel::unit());
  const auto layers = s.layers();
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers[0].size(), 3u);  // H0, H1, H2
  EXPECT_EQ(layers[1].size(), 1u);  // CP(0,1)
}

TEST(Scheduler, EmptyCircuit) {
  Circuit c(3);
  EXPECT_EQ(circuit_depth(c), 0);
}

TEST(Scheduler, LayersSkipEmptyStartCycles) {
  // Weighted latency leaves gaps between start cycles; the bucket fill must
  // drop the empty buckets exactly like the old sorted-map grouping did.
  Circuit c(2);
  c.append(Gate::swap(0, 1));        // starts 0, lasts 6
  c.append(Gate::cphase(0, 1, 1.0));  // starts 6
  c.append(Gate::h(0));               // starts 8
  auto lat = [](const Gate& g) -> Cycle {
    return g.kind == GateKind::kSwap ? 6 : 2;
  };
  const Schedule s = schedule_asap_with(c, lat);
  const auto layers = s.layers();
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0], (std::vector<std::int32_t>{0}));
  EXPECT_EQ(layers[1], (std::vector<std::int32_t>{1}));
  EXPECT_EQ(layers[2], (std::vector<std::int32_t>{2}));
}

TEST(Scheduler, LatencyModelMatchesEquivalentCallable) {
  Circuit c(3);
  c.append(Gate::h(0));
  c.append(Gate::cphase(0, 1, 1.0));
  c.append(Gate::swap(1, 2));
  c.append(Gate::h(2));
  LatencyModel model;
  model.set_cost(GateKind::kSwap, 6).set_cost(GateKind::kCPhase, 2);
  auto fn = [](const Gate& g) -> Cycle {
    if (g.kind == GateKind::kSwap) return 6;
    if (g.kind == GateKind::kCPhase) return 2;
    return 1;
  };
  const Schedule a = schedule_asap(c, model);
  const Schedule b = schedule_asap_with(c, fn);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(circuit_depth(c, model), a.depth);
}

TEST(Stats, CountsAllKinds) {
  Circuit c(3);
  c.append(Gate::h(0));
  c.append(Gate::x(1));
  c.append(Gate::rz(2, 0.1));
  c.append(Gate::cphase(0, 1, 0.2));
  c.append(Gate::swap(1, 2));
  c.append(Gate::cnot(0, 2));
  const GateCounts gc = count_gates(c);
  EXPECT_EQ(gc.h, 1);
  EXPECT_EQ(gc.x, 1);
  EXPECT_EQ(gc.rz, 1);
  EXPECT_EQ(gc.cphase, 1);
  EXPECT_EQ(gc.swap, 1);
  EXPECT_EQ(gc.cnot, 1);
  EXPECT_EQ(gc.total(), 6);
  EXPECT_EQ(gc.two_qubit(), 3);
}

TEST(Inverse, ReversesAndConjugates) {
  Circuit c(2);
  c.append(Gate::h(0));
  c.append(Gate::cphase(0, 1, 0.5));
  c.append(Gate::rz(1, 0.25));
  const Circuit inv = inverse_circuit(c);
  ASSERT_EQ(inv.size(), 3u);
  EXPECT_EQ(inv[0].kind, GateKind::kRz);
  EXPECT_DOUBLE_EQ(inv[0].angle, -0.25);
  EXPECT_EQ(inv[1].kind, GateKind::kCPhase);
  EXPECT_DOUBLE_EQ(inv[1].angle, -0.5);
  EXPECT_EQ(inv[2].kind, GateKind::kH);
}

TEST(Inverse, MappedSwapsEndpoints) {
  MappedCircuit mc;
  mc.circuit = Circuit(2);
  mc.circuit.append(Gate::swap(0, 1));
  mc.initial = {0, 1};
  mc.final_mapping = {1, 0};
  const MappedCircuit inv = inverse_mapped(mc);
  EXPECT_EQ(inv.initial, (std::vector<PhysicalQubit>{1, 0}));
  EXPECT_EQ(inv.final_mapping, (std::vector<PhysicalQubit>{0, 1}));
}

TEST(MappedCircuitHelpers, ValidMapping) {
  EXPECT_TRUE(valid_mapping({0, 2, 1}, 3));
  EXPECT_FALSE(valid_mapping({0, 0}, 3));
  EXPECT_FALSE(valid_mapping({0, 3}, 3));
  EXPECT_FALSE(valid_mapping({-1}, 3));
  EXPECT_TRUE(valid_mapping({}, 0));
}

}  // namespace
}  // namespace qfto
