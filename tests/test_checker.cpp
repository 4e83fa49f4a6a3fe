#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "arch/line.hpp"
#include "circuit/qft_spec.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "support/qft_replay.hpp"
#include "verify/equivalence.hpp"
#include "verify/mapping_tracker.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace {

std::vector<PhysicalQubit> identity_map(std::int32_t n) {
  std::vector<PhysicalQubit> m(n);
  std::iota(m.begin(), m.end(), 0);
  return m;
}

// Hand-built valid mapped QFT on a 2-qubit line:
// H(0); CP(0,1); H(1)  with identity mappings.
MappedCircuit tiny_valid() {
  MappedCircuit mc;
  mc.circuit = Circuit(2);
  mc.circuit.append(Gate::h(0));
  mc.circuit.append(Gate::cphase(0, 1, qft_angle(0, 1)));
  mc.circuit.append(Gate::h(1));
  mc.initial = identity_map(2);
  mc.final_mapping = identity_map(2);
  return mc;
}

TEST(MappingTracker, FollowsSwaps) {
  MappingTracker t(identity_map(3), 3);
  EXPECT_EQ(t.physical_of(0), 0);
  t.apply_swap(0, 1);
  EXPECT_EQ(t.physical_of(0), 1);
  EXPECT_EQ(t.physical_of(1), 0);
  EXPECT_EQ(t.logical_at(0), 1);
  t.apply_swap(1, 2);
  EXPECT_EQ(t.physical_of(0), 2);
}

TEST(MappingTracker, HandlesEmptyNodes) {
  MappingTracker t({2}, 3);  // one logical qubit at physical 2
  EXPECT_EQ(t.logical_at(0), kInvalidQubit);
  t.apply_swap(2, 0);
  EXPECT_EQ(t.physical_of(0), 0);
  EXPECT_EQ(t.logical_at(2), kInvalidQubit);
}

TEST(MappingTracker, RejectsBadMappings) {
  EXPECT_THROW(MappingTracker({0, 0}, 3), std::invalid_argument);
  EXPECT_THROW(MappingTracker({5}, 3), std::invalid_argument);
}

TEST(Checker, AcceptsValidTiny) {
  const CouplingGraph g = make_line(2);
  const auto r = check_qft_mapping(tiny_valid(), g);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.depth, 3);
  EXPECT_EQ(r.counts.cphase, 1);
}

TEST(Checker, RejectsNonAdjacentGate) {
  const CouplingGraph g = make_line(3);
  MappedCircuit mc;
  mc.circuit = Circuit(3);
  mc.circuit.append(Gate::h(0));
  mc.circuit.append(Gate::cphase(0, 2, qft_angle(0, 1)));
  mc.initial = identity_map(2);
  mc.final_mapping = identity_map(2);
  const auto r = check_qft_mapping(mc, g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not coupled"), std::string::npos);
}

TEST(Checker, RejectsWrongAngle) {
  const CouplingGraph g = make_line(2);
  MappedCircuit mc = tiny_valid();
  Circuit c(2);
  c.append(Gate::h(0));
  c.append(Gate::cphase(0, 1, 0.123));
  c.append(Gate::h(1));
  mc.circuit = c;
  const auto r = check_qft_mapping(mc, g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("angle"), std::string::npos);
}

TEST(Checker, RejectsMissingPair) {
  const CouplingGraph g = make_line(2);
  MappedCircuit mc = tiny_valid();
  Circuit c(2);
  c.append(Gate::h(0));
  c.append(Gate::h(1));
  mc.circuit = c;
  const auto r = check_qft_mapping(mc, g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("missing CPHASE"), std::string::npos);
}

TEST(Checker, RejectsWindowViolationBeforeH) {
  const CouplingGraph g = make_line(2);
  MappedCircuit mc = tiny_valid();
  Circuit c(2);
  c.append(Gate::cphase(0, 1, qft_angle(0, 1)));  // before H(0): invalid
  c.append(Gate::h(0));
  c.append(Gate::h(1));
  mc.circuit = c;
  const auto r = check_qft_mapping(mc, g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("before H(0)"), std::string::npos);
}

TEST(Checker, RejectsWindowViolationAfterH) {
  const CouplingGraph g = make_line(2);
  MappedCircuit mc = tiny_valid();
  Circuit c(2);
  c.append(Gate::h(0));
  c.append(Gate::h(1));
  c.append(Gate::cphase(0, 1, qft_angle(0, 1)));  // after H(1): invalid
  mc.circuit = c;
  const auto r = check_qft_mapping(mc, g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("after H(1)"), std::string::npos);
}

TEST(Checker, RejectsDuplicateH) {
  const CouplingGraph g = make_line(2);
  MappedCircuit mc = tiny_valid();
  Circuit c(2);
  c.append(Gate::h(0));
  c.append(Gate::h(0));
  c.append(Gate::cphase(0, 1, qft_angle(0, 1)));
  c.append(Gate::h(1));
  mc.circuit = c;
  const auto r = check_qft_mapping(mc, g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("duplicate H"), std::string::npos);
}

TEST(Checker, RejectsWrongFinalMapping) {
  const CouplingGraph g = make_line(2);
  MappedCircuit mc = tiny_valid();
  mc.final_mapping = {1, 0};  // circuit has no swaps
  const auto r = check_qft_mapping(mc, g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("final mapping"), std::string::npos);
}

TEST(Checker, TracksSwapsIntoFinalMapping) {
  const CouplingGraph g = make_line(2);
  MappedCircuit mc;
  mc.circuit = Circuit(2);
  mc.circuit.append(Gate::h(0));
  mc.circuit.append(Gate::cphase(0, 1, qft_angle(0, 1)));
  mc.circuit.append(Gate::swap(0, 1));
  mc.circuit.append(Gate::h(0));  // logical 1 now at physical 0
  mc.initial = identity_map(2);
  mc.final_mapping = {1, 0};
  const auto r = check_qft_mapping(mc, g);
  EXPECT_TRUE(r.ok) << r.error;
}

// ------------------------------------------------------- incremental API --

TEST(IncrementalChecker, StreamsTinyValidCircuit) {
  const CouplingGraph g = make_line(2);
  const MappedCircuit mc = tiny_valid();
  IncrementalQftChecker chk(mc.initial, g);
  for (const Gate& gate : mc.circuit) ASSERT_TRUE(chk.push(gate));
  EXPECT_FALSE(chk.failed());
  EXPECT_EQ(chk.gates_seen(), 3);
  const auto r = chk.finish(mc.final_mapping);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.depth, 3);
  EXPECT_EQ(r.counts.cphase, 1);
  EXPECT_EQ(r.counts.h, 2);
}

TEST(IncrementalChecker, MidStreamStateIsObservable) {
  const CouplingGraph g = make_line(2);
  IncrementalQftChecker chk({0, 1}, g);
  EXPECT_EQ(chk.logical_at(0), 0);
  ASSERT_TRUE(chk.push(Gate::h(0)));
  EXPECT_EQ(chk.depth(), 1);
  ASSERT_TRUE(chk.push(Gate::swap(0, 1)));
  EXPECT_EQ(chk.logical_at(0), 1);
  EXPECT_EQ(chk.counts().swap, 1);
}

TEST(IncrementalChecker, RejectsOutOfRangeWires) {
  const CouplingGraph g = make_line(2);
  IncrementalQftChecker chk({0, 1}, g);
  EXPECT_FALSE(chk.push(Gate::h(7)));
  EXPECT_TRUE(chk.failed());
  EXPECT_NE(chk.error().find("out of range"), std::string::npos);
  // Subsequent gates are ignored once failed.
  EXPECT_FALSE(chk.push(Gate::h(0)));
}

TEST(IncrementalChecker, RejectsBadInitialMapping) {
  const CouplingGraph g = make_line(3);
  EXPECT_THROW(IncrementalQftChecker({0, 0}, g), std::invalid_argument);
  EXPECT_THROW(IncrementalQftChecker({5}, g), std::invalid_argument);
}

// --------------------------------------------------------- mutation suite --
//
// For every checker failure mode, corrupt a valid engine-mapped circuit and
// assert that the streaming checker (check_qft_mapping), the test-only
// replay oracle (check_qft_mapping_replay) and the raw IncrementalQftChecker
// API all reject it with the same diagnosis — locking the streaming checker
// against silently accepting what the replay algorithm refuses. The engines
// cover both production QFT paths: structured emitters (lnn, heavy_hex,
// sycamore, lattice) and the routed sabre circuit the streaming checker is
// the production verifier for.

class CheckerMutation : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    engine_ = GetParam();
    result_ = map_qft(engine_, 16);
    ASSERT_TRUE(result_.check.ok) << result_.check.error;
    latency_ =
        MapperPipeline::global().at(engine_).latency_model(result_.graph);
  }

  const CouplingGraph& graph() const { return result_.graph; }
  const MappedCircuit& valid() const { return result_.mapped; }

  std::vector<Gate> gates() const {
    const Circuit& c = valid().circuit;
    return std::vector<Gate>(c.begin(), c.end());
  }

  MappedCircuit rebuilt(const std::vector<Gate>& gates) const {
    MappedCircuit mc;
    mc.circuit = Circuit(valid().circuit.num_qubits());
    for (const Gate& g : gates) mc.circuit.append(g);
    mc.initial = valid().initial;
    mc.final_mapping = valid().final_mapping;
    return mc;
  }

  static std::size_t find_kind(const std::vector<Gate>& gates, GateKind kind) {
    for (std::size_t i = 0; i < gates.size(); ++i) {
      if (gates[i].kind == kind) return i;
    }
    return gates.size();
  }

  static std::size_t rfind_kind(const std::vector<Gate>& gates,
                                GateKind kind) {
    for (std::size_t i = gates.size(); i-- > 0;) {
      if (gates[i].kind == kind) return i;
    }
    return gates.size();
  }

  void expect_all_reject(const MappedCircuit& mc,
                         const std::string& substring) const {
    const auto fast = check_qft_mapping(mc, graph(), latency_);
    EXPECT_FALSE(fast.ok);
    EXPECT_NE(fast.error.find(substring), std::string::npos) << fast.error;

    const auto legacy = check_qft_mapping_replay(mc, graph(), latency_);
    EXPECT_FALSE(legacy.ok);
    EXPECT_EQ(fast.error, legacy.error);

    IncrementalQftChecker chk(mc.initial, graph(), latency_);
    for (const Gate& g : mc.circuit) {
      if (!chk.push(g)) break;
    }
    const auto streamed = chk.finish(mc.final_mapping);
    EXPECT_FALSE(streamed.ok);
    EXPECT_EQ(streamed.error, fast.error);
  }

  std::string engine_;
  MapResult result_;
  LatencyModel latency_;  // bound to result_.graph
};

TEST_P(CheckerMutation, ValidCircuitAcceptedIdenticallyByBothCheckers) {
  const auto fast = check_qft_mapping(valid(), graph(), latency_);
  const auto legacy = check_qft_mapping_replay(valid(), graph(), latency_);
  ASSERT_TRUE(fast.ok) << fast.error;
  ASSERT_TRUE(legacy.ok) << legacy.error;
  EXPECT_EQ(fast.depth, legacy.depth);
  EXPECT_EQ(fast.counts.h, legacy.counts.h);
  EXPECT_EQ(fast.counts.cphase, legacy.counts.cphase);
  EXPECT_EQ(fast.counts.swap, legacy.counts.swap);
  EXPECT_EQ(fast.counts.total(), legacy.counts.total());
}

TEST_P(CheckerMutation, RejectsNonCoupledGate) {
  auto gs = gates();
  const std::size_t i = find_kind(gs, GateKind::kCPhase);
  ASSERT_LT(i, gs.size());
  PhysicalQubit far = kInvalidQubit;
  for (PhysicalQubit p = 0; p < graph().num_qubits(); ++p) {
    if (p != gs[i].q0 && !graph().adjacent(gs[i].q0, p)) {
      far = p;
      break;
    }
  }
  ASSERT_NE(far, kInvalidQubit);
  gs[i].q1 = far;
  expect_all_reject(rebuilt(gs), "not coupled");
}

TEST_P(CheckerMutation, RejectsDuplicateH) {
  auto gs = gates();
  const std::size_t i = find_kind(gs, GateKind::kH);
  ASSERT_LT(i, gs.size());
  gs.insert(gs.begin() + i + 1, gs[i]);
  expect_all_reject(rebuilt(gs), "duplicate H");
}

TEST_P(CheckerMutation, RejectsMissingH) {
  auto gs = gates();
  const std::size_t i = rfind_kind(gs, GateKind::kH);
  ASSERT_LT(i, gs.size());
  gs.erase(gs.begin() + i);
  // Depending on what follows, either the H total or a Type-II window check
  // reports first; both diagnose the missing Hadamard.
  expect_all_reject(rebuilt(gs), "H");
}

TEST_P(CheckerMutation, RejectsDuplicateCphase) {
  auto gs = gates();
  const std::size_t i = find_kind(gs, GateKind::kCPhase);
  ASSERT_LT(i, gs.size());
  gs.insert(gs.begin() + i + 1, gs[i]);
  expect_all_reject(rebuilt(gs), "duplicate CPHASE");
}

TEST_P(CheckerMutation, RejectsMissingCphase) {
  auto gs = gates();
  const std::size_t i = find_kind(gs, GateKind::kCPhase);
  ASSERT_LT(i, gs.size());
  gs.erase(gs.begin() + i);
  expect_all_reject(rebuilt(gs), "missing CPHASE");
}

TEST_P(CheckerMutation, RejectsWrongAngle) {
  auto gs = gates();
  const std::size_t i = find_kind(gs, GateKind::kCPhase);
  ASSERT_LT(i, gs.size());
  gs[i].angle += 0.125;
  expect_all_reject(rebuilt(gs), "angle");
}

TEST_P(CheckerMutation, RejectsTypeIiOrderingViolation) {
  // Hoisting a CPHASE to the very front of the circuit breaks the relaxed
  // ordering window: no H has executed yet, so the pair is premature (or,
  // when SWAPs have shuffled the occupants, the stamped angle no longer
  // matches the pair at that node). Either way the window logic must refuse.
  auto gs = gates();
  const std::size_t i = find_kind(gs, GateKind::kCPhase);
  ASSERT_LT(i, gs.size());
  const Gate moved = gs[i];
  gs.erase(gs.begin() + i);
  gs.insert(gs.begin(), moved);
  expect_all_reject(rebuilt(gs), "pair {");
}

TEST_P(CheckerMutation, RejectsWrongFinalMapping) {
  MappedCircuit mc = valid();
  ASSERT_GE(mc.final_mapping.size(), 2u);
  std::swap(mc.final_mapping[0], mc.final_mapping[1]);
  expect_all_reject(mc, "final mapping");
}

INSTANTIATE_TEST_SUITE_P(Engines, CheckerMutation,
                         ::testing::Values("lnn", "heavy_hex", "sycamore",
                                           "lattice", "sabre"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(Equivalence, AcceptsTextbookIdentityMapping) {
  MappedCircuit mc = tiny_valid();
  EXPECT_LT(mapped_equivalence_error(mc), 1e-10);
}

TEST(Equivalence, DetectsWrongCircuit) {
  MappedCircuit mc = tiny_valid();
  Circuit c(2);
  c.append(Gate::h(0));
  c.append(Gate::h(1));
  mc.circuit = c;
  EXPECT_GT(mapped_equivalence_error(mc), 1e-3);
}

TEST(Equivalence, HandlesAncillaQubits) {
  // Logical 1-qubit QFT placed on physical node 2 of a 3-node register.
  MappedCircuit mc;
  mc.circuit = Circuit(3);
  mc.circuit.append(Gate::h(2));
  mc.initial = {2};
  mc.final_mapping = {2};
  EXPECT_LT(mapped_equivalence_error(mc), 1e-10);
}

}  // namespace
}  // namespace qfto
