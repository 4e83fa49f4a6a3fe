#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/line.hpp"
#include "arch/sycamore.hpp"
#include "baseline/sabre.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/transforms.hpp"
#include "common/prng.hpp"
#include "mapper/heavy_hex_mapper.hpp"
#include "mapper/lnn_mapper.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "qasm/qasm.hpp"
#include "sim/unitary.hpp"
#include "verify/circuit_checker.hpp"

namespace qfto {
namespace {

/// Random circuit over the full gate alphabet — the round-trip property
/// tests' input distribution (seed-stable PRNG, so failures reproduce).
Circuit random_circuit(Xoshiro256ss& rng, std::int32_t n,
                       std::int32_t num_gates) {
  Circuit c(n);
  for (std::int32_t i = 0; i < num_gates; ++i) {
    const auto a = static_cast<std::int32_t>(rng.uniform(n));
    const auto b = static_cast<std::int32_t>(
        (a + 1 + static_cast<std::int32_t>(rng.uniform(n - 1))) % n);
    const double angle = (rng.uniform_double() - 0.5) * 8.0;
    switch (rng.uniform(6)) {
      case 0: c.append(Gate::h(a)); break;
      case 1: c.append(Gate::x(a)); break;
      case 2: c.append(Gate::rz(a, angle)); break;
      case 3: c.append(Gate::cphase(a, b, angle)); break;
      case 4: c.append(Gate::swap(a, b)); break;
      default: c.append(Gate::cnot(a, b)); break;
    }
  }
  return c;
}

TEST(Qasm, HeaderAndRegister) {
  Circuit c(3);
  c.append(Gate::h(0));
  const std::string q = to_qasm(c);
  EXPECT_NE(q.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(q.find("qreg q[3];"), std::string::npos);
  EXPECT_NE(q.find("h q[0];"), std::string::npos);
}

TEST(Qasm, AllGateKindsEmit) {
  Circuit c(3);
  c.append(Gate::h(0));
  c.append(Gate::x(1));
  c.append(Gate::rz(2, 0.25));
  c.append(Gate::cphase(0, 1, 0.5));
  c.append(Gate::swap(1, 2));
  c.append(Gate::cnot(0, 2));
  const std::string q = to_qasm(c);
  for (const char* needle :
       {"h q[0];", "x q[1];", "rz(0.25) q[2];", "cu1(0.5) q[0],q[1];",
        "swap q[1],q[2];", "cx q[0],q[2];"}) {
    EXPECT_NE(q.find(needle), std::string::npos) << needle;
  }
}

TEST(Qasm, RoundTripPreservesGateList) {
  const Circuit orig = qft_logical(6);
  const Circuit back = from_qasm(to_qasm(orig));
  ASSERT_EQ(back.size(), orig.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_TRUE(back[i] == orig[i]) << "gate " << i;
  }
}

TEST(Qasm, RoundTripMappedKernelExactUnitary) {
  const MappedCircuit mc = map_qft_lnn(5);
  const Circuit back = from_qasm(to_qasm(mc.circuit));
  EXPECT_LT(unitary_distance(circuit_unitary(mc.circuit),
                             circuit_unitary(back)),
            1e-12);
}

TEST(Qasm, RoundTripCnotBasis) {
  const Circuit lowered = decompose_to_cnot(map_qft_lnn(4).circuit);
  const Circuit back = from_qasm(to_qasm(lowered));
  ASSERT_EQ(back.size(), lowered.size());
  EXPECT_LT(
      unitary_distance(circuit_unitary(lowered), circuit_unitary(back)),
      1e-12);
}

TEST(Qasm, MappedHeaderCarriesMappings) {
  const MappedCircuit mc = map_qft_heavy_hex(10);
  const std::string q = to_qasm(mc);
  EXPECT_NE(q.find("initial mapping"), std::string::npos);
  EXPECT_NE(q.find("final mapping"), std::string::npos);
  // Comments must not break the parser.
  EXPECT_NO_THROW(from_qasm(q));
}

TEST(Qasm, ParsesPiExpressions) {
  const std::string text =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
      "cu1(pi/4) q[0],q[1];\nrz(-pi) q[0];\nrz(pi*0.5) q[1];\n";
  const Circuit c = from_qasm(text);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c[0].angle, M_PI / 4, 1e-12);
  EXPECT_NEAR(c[1].angle, -M_PI, 1e-12);
  EXPECT_NEAR(c[2].angle, M_PI / 2, 1e-12);
}

TEST(Qasm, AcceptsCpAliasAndBarrier) {
  const std::string text =
      "OPENQASM 2.0;\nqreg q[2];\ncp(0.5) q[0],q[1];\nbarrier q[0],q[1];\n"
      "h q[1];\n";
  const Circuit c = from_qasm(text);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].kind, GateKind::kCPhase);
  EXPECT_EQ(c[1].kind, GateKind::kH);
}

TEST(Qasm, RejectsMalformedInput) {
  EXPECT_THROW(from_qasm("garbage"), std::invalid_argument);
  EXPECT_THROW(from_qasm("OPENQASM 2.0; qreg q[2]; h r[0];"),
               std::invalid_argument);
  EXPECT_THROW(from_qasm("OPENQASM 2.0; qreg q[2]; h q[5];"),
               std::invalid_argument);
  EXPECT_THROW(from_qasm("OPENQASM 2.0; qreg q[2]; bogus q[0];"),
               std::invalid_argument);
  EXPECT_THROW(from_qasm("OPENQASM 2.0; qreg q[2]; h q[0]"),
               std::invalid_argument);  // missing semicolon
}

TEST(Qasm, ErrorsCarryLineNumbers) {
  try {
    from_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0];\nbogus q[1];\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

/// Expects `text` to fail with a positioned std::invalid_argument naming
/// `line`. Any other exception type is the bug class this PR fixes.
void expect_positioned_rejection(const std::string& text, int line) {
  try {
    from_qasm(text);
    FAIL() << "expected throw for: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << e.what();
  } catch (const std::exception& e) {
    FAIL() << "non-invalid_argument escaped: " << e.what();
  }
}

// Regression: std::stoll used to escape raw std::out_of_range here.
TEST(QasmRegression, OversizedIntegerLiteralIsPositionedError) {
  expect_positioned_rejection(
      "OPENQASM 2.0;\nqreg q[99999999999999999999];\n", 2);
  expect_positioned_rejection(
      "OPENQASM 2.0;\nqreg q[3];\nh q[12345678901234567890123];\n", 3);
}

// Regression: std::stod used to escape raw std::out_of_range on rz(1e99999).
TEST(QasmRegression, OversizedRealLiteralIsPositionedError) {
  expect_positioned_rejection("OPENQASM 2.0;\nqreg q[2];\nrz(1e99999) q[0];\n",
                              3);
  expect_positioned_rejection(
      "OPENQASM 2.0;\nqreg q[2];\ncu1(-1e9999) q[0],q[1];\n", 3);
}

// Regression: pi*1e308 / pi/1e-308 overflowed to infinity past the finite
// operand checks, and the resulting "rz(inf)" broke the emit->reparse round
// trip.
TEST(QasmRegression, PiExpressionOverflowIsPositionedError) {
  expect_positioned_rejection(
      "OPENQASM 2.0;\nqreg q[2];\nrz(pi*1e308) q[0];\n", 3);
  expect_positioned_rejection(
      "OPENQASM 2.0;\nqreg q[2];\nrz(-pi/1e-308) q[0];\n", 3);
}

// Regression: a lone sign used to escape an unpositioned "stoll"/"stod"
// invalid_argument instead of the documented parse error.
TEST(QasmRegression, LoneSignIsPositionedError) {
  expect_positioned_rejection("OPENQASM 2.0;\nqreg q[2];\nh q[-];\n", 3);
  expect_positioned_rejection("OPENQASM 2.0;\nqreg q[2];\nrz(-) q[0];\n", 3);
  expect_positioned_rejection("OPENQASM 2.0;\nqreg q[2];\nrz(+) q[0];\n", 3);
}

// Regression: the permissive number scan accepted '-'/'+'/'.'/'e' anywhere,
// so these all silently (mis)parsed — cu1(1.5-2) as 1.5, rz(1e+) as 1.
TEST(QasmRegression, TrailingGarbageInNumbersIsRejected) {
  expect_positioned_rejection(
      "OPENQASM 2.0;\nqreg q[2];\ncu1(1.5-2) q[0],q[1];\n", 3);
  expect_positioned_rejection("OPENQASM 2.0;\nqreg q[2];\nrz(1e+) q[0];\n", 3);
  expect_positioned_rejection("OPENQASM 2.0;\nqreg q[2];\nrz(1..2) q[0];\n",
                              3);
  expect_positioned_rejection(
      "OPENQASM 2.0;\nqreg q[2];\nrz(1e2e3) q[0];\n", 3);
}

// `barrier;` with no operand list is legal QASM 2.0.
TEST(QasmRegression, BareBarrierIsAccepted) {
  const Circuit c = from_qasm(
      "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nbarrier;\nh q[1];\n");
  EXPECT_EQ(c.size(), 2u);
  expect_positioned_rejection("OPENQASM 2.0;\nqreg q[2];\nbarrier", 3);
}

// The fuzz harness's exception contract, spot-checked in-process: nothing
// but std::invalid_argument may escape, on any input.
TEST(QasmRegression, OnlyInvalidArgumentEverEscapes) {
  const std::vector<std::string> hostile = {
      "", "OPENQASM", "OPENQASM 2.0", "OPENQASM 2.0;",
      "OPENQASM 2.0;qreg q[0];", "OPENQASM 2.0;qreg q[-3];",
      "OPENQASM 2.0;qreg q[2];swap q[0],q[0];",
      "OPENQASM 2.0;qreg q[2];cu1(pi/0) q[0],q[1];",
      "OPENQASM 2.0;qreg q[2];cu1(pi/) q[0],q[1];",
      "OPENQASM 2.0;qreg q[2];rz(.e.) q[0];",
      "OPENQASM 2.0;qreg q[2];rz(++1) q[0];",
      "OPENQASM 2.0;qreg q[2];h q[999999999999999999999];",
      "OPENQASM 2.0;qreg q[1048577];",
      "// initial mapping (logical->physical): 0->\nOPENQASM 2.0;qreg q[1];",
      std::string(64, '['), std::string("qreg\0q", 6)};
  for (const auto& text : hostile) {
    try {
      from_qasm(text);
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      FAIL() << "non-invalid_argument escaped from_qasm on '" << text
             << "': " << e.what();
    }
  }
}

// The ROADMAP round-trip property, randomized: from_qasm(to_qasm(c)) == c
// gate-for-gate over the full alphabet and a wide angle range.
TEST(QasmProperty, RandomCircuitsRoundTripGateForGate) {
  Xoshiro256ss rng(0xf022);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::int32_t>(2 + rng.uniform(7));
    const Circuit c =
        random_circuit(rng, n, static_cast<std::int32_t>(rng.uniform(41)));
    const Circuit back = from_qasm(to_qasm(c));
    ASSERT_EQ(back.num_qubits(), c.num_qubits());
    ASSERT_EQ(back.size(), c.size());
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_TRUE(back[i] == c[i]) << "trial " << trial << " gate " << i;
    }
  }
}

// Mapped kernels survive the file format unitary-exactly: the mapping
// header comments read as comments.
TEST(QasmProperty, RoutedKernelsRoundTripUnitaryExact) {
  Xoshiro256ss rng(0xbeef);
  const CouplingGraph line = make_line(4);
  for (int trial = 0; trial < 8; ++trial) {
    const Circuit logical = random_circuit(rng, 4, 12);
    const MappedCircuit mc = sabre_route(logical, line);
    const Circuit back = from_qasm(to_qasm(mc));
    EXPECT_LT(unitary_distance(circuit_unitary(mc.circuit),
                               circuit_unitary(back)),
              1e-12)
        << "trial " << trial;
  }
}

// Fixture: the checked-in QFT-16 sycamore kernel parses, re-verifies against
// the QFT spec on the sycamore graph, and its circuit feeds back through the
// general map_circuit entry point end-to-end.
TEST(QasmFixture, Qft16SycamoreParsesAndReverifies) {
  std::ifstream in(std::string(QFTO_SOURCE_DIR) +
                   "/tests/fixtures/qft16_sycamore.qasm");
  ASSERT_TRUE(in) << "fixture missing";
  std::ostringstream text;
  text << in.rdbuf();

  // The mappings of the header comments; to_qasm must write the fixture
  // back byte for byte.
  MappedCircuit mc;
  mc.circuit = from_qasm(text.str());
  mc.initial = {0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14, 11, 15};
  mc.final_mapping = {10, 11, 9, 15, 8, 14, 12, 13, 7, 3, 6, 2, 5, 1, 4, 0};
  EXPECT_EQ(to_qasm(mc), text.str());
  const CouplingGraph graph = make_sycamore(4);
  const QftCheckResult check =
      check_circuit_mapping(mc, qft_logical(16), graph);
  EXPECT_TRUE(check.ok) << check.error;

  const MapResult routed = map_circuit("sycamore", mc.circuit);
  EXPECT_TRUE(routed.check.ok) << routed.check.error;
  EXPECT_EQ(routed.n, 16);
  EXPECT_EQ(routed.graph.num_qubits(), 16);
}

}  // namespace
}  // namespace qfto
