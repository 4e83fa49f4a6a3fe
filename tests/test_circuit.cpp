#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

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

std::uint64_t angle_bits(double angle) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &angle, sizeof(bits));
  return bits;
}

TEST(GatePacking, EveryFieldRoundTripsAtItsExtremes) {
  static_assert(sizeof(Gate) == 16);
  // A NaN with a payload and a negative zero: bit patterns a lossy store
  // would canonicalize.
  const std::uint64_t nan_bits = 0x7ff8'0000'0000'1234ull;
  double nan_payload = 0.0;
  std::memcpy(&nan_payload, &nan_bits, sizeof(nan_payload));
  for (std::size_t k = 0; k < kGateKindCount; ++k) {
    const auto kind = static_cast<GateKind>(k);
    for (const double angle : {-0.0, nan_payload, 1.0 / 3.0}) {
      const Gate g{kind, kMaxQubits, kInvalidQubit, angle};
      EXPECT_EQ(g.kind, kind);
      EXPECT_EQ(g.q0, kMaxQubits);
      EXPECT_EQ(g.q1, kInvalidQubit);
      EXPECT_EQ(angle_bits(g.angle), angle_bits(angle));
    }
    const Gate low{kind, kInvalidQubit, INT32_MAX, 0.0};
    EXPECT_EQ(low.kind, kind);
    EXPECT_EQ(low.q0, kInvalidQubit);
    EXPECT_EQ(low.q1, INT32_MAX);
  }
  // Through the store, on the widest circuit the bound admits.
  Circuit c(kMaxQubits);
  c.append(Gate::cphase(kMaxQubits - 1, 0, nan_payload));
  c.append(Gate::rz(kMaxQubits - 1, -0.0));
  EXPECT_EQ(c[0].kind, GateKind::kCPhase);
  EXPECT_EQ(c[0].q0, kMaxQubits - 1);
  EXPECT_EQ(c[0].q1, 0);
  EXPECT_EQ(angle_bits(c[0].angle), nan_bits);
  EXPECT_EQ(c[1].q0, kMaxQubits - 1);
  EXPECT_EQ(c[1].q1, kInvalidQubit);
  EXPECT_EQ(angle_bits(c[1].angle), angle_bits(-0.0));
}

TEST(GatePacking, CircuitRejectsWiresQ0CannotHold) {
  EXPECT_EQ(kMaxQubits, (1 << 27) - 1);
  EXPECT_NO_THROW(Circuit{kMaxQubits});
  EXPECT_THROW(Circuit{1 << 27}, std::invalid_argument);
  EXPECT_THROW(Circuit{INT32_MAX}, std::invalid_argument);
}

TEST(GatePacking, FingerprintMatchesTheUnpackedLayout) {
  // Cache keys hash gate fields, not bytes: this value was taken with the
  // 24-byte Gate, so packing moved no key and no cache file entry.
  const std::int32_t top = kMaxQubits;
  Circuit c(top);
  c.append(Gate::h(0));
  c.append(Gate::x(5));
  c.append(Gate::rz(7, 0.123456789));
  c.append(Gate::cphase(1, 2, M_PI / 8));
  c.append(Gate::swap(3, top - 1));
  c.append(Gate::cnot(top - 2, 0));
  for (std::int32_t i = 0; i < 64; ++i) {
    c.append(Gate::cphase(i, i + 1, M_PI / std::ldexp(1.0, i % 20)));
    c.append(Gate::swap(i + 1, i));
    c.append(Gate::rz(top - 1 - i, -0.5 * i));
  }
  ASSERT_EQ(c.size(), 198u);
  EXPECT_EQ(c.fingerprint(), 0x5c98b24396a5bfd3ull);
}

/// The i-th gate of a deterministic mixed stream over `wires` wires.
Gate nth_gate(std::size_t i, std::int32_t wires) {
  const auto a = static_cast<std::int32_t>(i % static_cast<std::size_t>(wires));
  const std::int32_t b = (a + 1) % wires;
  switch (i % 4) {
    case 0: return Gate::h(a);
    case 1: return Gate::cphase(a, b, 1.0 / static_cast<double>(i + 1));
    case 2: return Gate::swap(b, a);
    default: return Gate::rz(a, -static_cast<double>(i));
  }
}

void expect_stream(const Circuit& c, std::size_t from, std::size_t count,
                   std::size_t offset = 0) {
  ASSERT_GE(c.size(), offset + count);
  for (std::size_t i = 0; i < count; ++i) {
    const Gate want = nth_gate(from + i, c.num_qubits());
    const Gate& got = c[offset + i];
    ASSERT_TRUE(got.kind == want.kind && got.q0 == want.q0 &&
                got.q1 == want.q1 &&
                angle_bits(got.angle) == angle_bits(want.angle))
        << "gate " << offset + i;
  }
}

TEST(GatePacking, StoreKeepsEveryGateThroughCopyMoveExtendAndGrowth) {
  constexpr std::int32_t kWires = 97;
  // Growth past a reservation, small enough for the heap and large enough
  // (32 MiB past a 16 MiB reservation) for a block with its own mapping.
  for (const std::size_t reserved : {std::size_t{100}, std::size_t{1} << 20}) {
    const std::size_t count = 2 * reserved + 5;
    Circuit c(kWires);
    c.reserve(reserved);
    EXPECT_GE(c.capacity(), reserved);
    for (std::size_t i = 0; i < count; ++i) c.append(nth_gate(i, kWires));
    EXPECT_EQ(c.size(), count);
    expect_stream(c, 0, count);

    c.shrink_to_fit();
    EXPECT_EQ(c.capacity(), count);
    expect_stream(c, 0, count);

    const Circuit copy = c;
    EXPECT_EQ(copy.capacity(), count) << "copies are exact-sized";
    expect_stream(copy, 0, count);

    Circuit moved = std::move(c);
    EXPECT_EQ(c.size(), 0u);
    expect_stream(moved, 0, count);

    Circuit assigned(1);
    assigned.append(Gate::h(0));
    assigned = copy;
    EXPECT_EQ(assigned.num_qubits(), kWires);
    expect_stream(assigned, 0, count);

    moved.extend(copy);
    EXPECT_EQ(moved.size(), 2 * count);
    expect_stream(moved, 0, count);
    expect_stream(moved, 0, count, count);
  }
  Circuit empty(kWires);
  empty.shrink_to_fit();
  EXPECT_EQ(empty.capacity(), 0u);
  EXPECT_EQ(empty.begin(), empty.end());
}

// --------------------------------------------------- packed word store --

bool same_bits(const Gate& a, const Gate& b) {
  return a.kind == b.kind && a.q0 == b.q0 && a.q1 == b.q1 &&
         angle_bits(a.angle) == angle_bits(b.angle);
}

/// Whether a gate fits one 8-byte word, decided from the layout's rule
/// rather than from the encoder: qubits below 2^20 - 1 (q1 may also be
/// kInvalidQubit) and an angle of ±0.0 or ±ldexp(π, -k), 0 <= k < 2048.
bool packs(const Gate& g) {
  constexpr std::int32_t kLimit = (1 << 20) - 1;
  if (g.q0 >= kLimit || (g.q1 != kInvalidQubit && (g.q1 < 0 || g.q1 >= kLimit))) {
    return false;
  }
  const std::uint64_t magnitude = angle_bits(std::fabs(g.angle));
  if (magnitude == 0) return true;
  for (int k = 0; k < 2048; ++k) {
    if (angle_bits(std::ldexp(M_PI, -k)) == magnitude) return true;
  }
  return false;
}

std::size_t expected_store_bytes(const std::vector<Gate>& gates) {
  std::size_t bytes = 0;
  for (const Gate& g : gates) bytes += packs(g) ? 8 : 24;
  return bytes;
}

void expect_gates(const Circuit& c, const std::vector<Gate>& want,
                  const std::string& where) {
  ASSERT_EQ(c.size(), want.size()) << where;
  std::size_t i = 0;
  for (const Gate got : c) {
    ASSERT_TRUE(same_bits(got, want[i])) << where << ": gate " << i << " "
                                         << got.to_string() << " vs "
                                         << want[i].to_string();
    ASSERT_TRUE(same_bits(c[i], want[i])) << where << ": operator[] " << i;
    ++i;
  }
}

/// Every kind over the qubit boundaries of the word layout (0, 2^20 - 2,
/// 2^20 - 1, kMaxQubits - 1, and kInvalidQubit as q1 of a 1q gate) and the
/// angles it packs and escapes.
std::vector<Gate> boundary_gates() {
  const std::uint64_t nan_bits = 0x7ff8'0000'0000'1234ull;
  double nan_payload = 0.0;
  std::memcpy(&nan_payload, &nan_bits, sizeof(nan_payload));
  std::vector<double> angles = {+0.0, -0.0, 1.0 / 3.0, nan_payload,
                                HUGE_VAL, -HUGE_VAL};
  for (const int k : {0, 1, 52, 1022, 1023, 1074, 2047}) {
    angles.push_back(std::ldexp(M_PI, -k));
    angles.push_back(-std::ldexp(M_PI, -k));
  }
  const std::int32_t qubits[] = {0, (1 << 20) - 2, (1 << 20) - 1,
                                 kMaxQubits - 1};
  std::vector<Gate> out;
  for (std::size_t k = 0; k < kGateKindCount; ++k) {
    const auto kind = static_cast<GateKind>(k);
    for (const std::int32_t q0 : qubits) {
      std::vector<std::int32_t> partners(std::begin(qubits), std::end(qubits));
      if (!is_two_qubit(kind)) partners.push_back(kInvalidQubit);
      for (const std::int32_t q1 : partners) {
        if (is_two_qubit(kind) && q1 == q0) continue;
        for (const double angle : angles) {
          out.push_back(Gate{kind, q0, q1, angle});
        }
      }
    }
  }
  return out;
}

TEST(CircuitStore, EveryBoundaryCaseRoundTripsBitExactly) {
  const std::vector<Gate> gates = boundary_gates();
  std::size_t escaped = 0;
  for (const Gate& g : gates) escaped += packs(g) ? 0 : 1;
  ASSERT_GT(escaped, 0u);
  ASSERT_LT(escaped, gates.size());

  // Append past a reservation, then trim.
  Circuit c(kMaxQubits);
  c.reserve(gates.size() / 3);
  for (const Gate& g : gates) c.append(g);
  expect_gates(c, gates, "appended");
  c.shrink_to_fit();
  EXPECT_EQ(c.store_bytes(), expected_store_bytes(gates));
  expect_gates(c, gates, "trimmed");

  const Circuit copy = c;
  expect_gates(copy, gates, "copy");
  EXPECT_EQ(copy.store_bytes(), expected_store_bytes(gates));

  Circuit moved = std::move(c);
  expect_gates(moved, gates, "moved");
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.store_bytes(), 0u) << "a moved-from circuit holds nothing";
  c = copy;  // a moved-from circuit is reusable
  expect_gates(c, gates, "reassigned");

  // extend with escaped gates on both sides: the second half's side-table
  // indices move past the first half's.
  const std::size_t half = gates.size() / 2;
  Circuit front(kMaxQubits), back(kMaxQubits);
  for (std::size_t i = 0; i < gates.size(); ++i) {
    (i < half ? front : back).append(gates[i]);
  }
  front.extend(back);
  expect_gates(front, gates, "extended");
  expect_gates(back, std::vector<Gate>(gates.begin() + half, gates.end()),
               "extend source");

  std::vector<Gate> twice = gates;
  twice.insert(twice.end(), gates.begin(), gates.end());
  moved.extend(moved);
  expect_gates(moved, twice, "self-extended");
  EXPECT_EQ(moved.fingerprint(), [&] {
    Circuit fresh(kMaxQubits);
    for (const Gate& g : twice) fresh.append(g);
    return fresh.fingerprint();
  }()) << "the fingerprint reads decoded fields, not the store";
}

TEST(CircuitStore, EveryPiScaleAndQftAnglePacksInOneWord) {
  Circuit c(4);
  std::vector<Gate> want;
  for (int k = 0; k < 2048; ++k) {
    for (const double angle : {std::ldexp(M_PI, -k), -std::ldexp(M_PI, -k)}) {
      want.push_back(Gate::cphase(0, 1, angle));
      want.push_back(Gate::rz(2, angle));
    }
  }
  for (std::int32_t j = 1; j < 3000; j += 7) {
    want.push_back(Gate::cphase(0, 3, qft_angle(0, j)));
  }
  for (const Gate& g : want) c.append(g);
  c.shrink_to_fit();
  expect_gates(c, want, "pi scales");
  EXPECT_EQ(c.store_bytes(), 8 * want.size());
  Circuit inv = inverse_circuit(c);
  inv.shrink_to_fit();
  EXPECT_EQ(inv.store_bytes(), 8 * want.size())
      << "negated QFT angles pack too";
}

TEST(CircuitStore, StoreBytesCountsWordsAndTheSideTable) {
  Circuit c(3);
  EXPECT_EQ(c.store_bytes(), 0u);
  c.append(Gate::h(0));
  c.append(Gate::swap(0, 1));
  c.append(Gate::cnot(1, 2));
  c.append(Gate::x(2));
  c.append(Gate::cphase(0, 2, M_PI / 4));
  c.shrink_to_fit();
  EXPECT_EQ(c.store_bytes(), 5u * 8u);
  c.append(Gate::rz(1, 0.1));  // an arbitrary rotation escapes
  c.shrink_to_fit();
  EXPECT_EQ(c.store_bytes(), 6u * 8u + 16u);
  EXPECT_DOUBLE_EQ(c[5].angle, 0.1);
  c.reserve(100);
  EXPECT_EQ(c.store_bytes(), 100u * 8u + 16u);
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
