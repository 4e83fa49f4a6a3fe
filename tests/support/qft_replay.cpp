#include "support/qft_replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/qft_spec.hpp"
#include "circuit/scheduler.hpp"
#include "circuit/stats.hpp"
#include "verify/mapping_tracker.hpp"

namespace qfto {

namespace {

QftCheckResult fail_result(std::string msg) {
  QftCheckResult r;
  r.ok = false;
  r.error = std::move(msg);
  return r;
}

std::string gate_ctx(std::size_t i, const Gate& g) {
  return "gate #" + std::to_string(i) + " " + g.to_string();
}

}  // namespace

QftCheckResult check_qft_mapping_replay(const MappedCircuit& mc,
                                        const CouplingGraph& g,
                                        const LatencyModel& latency) {
  if (mc.circuit.num_qubits() != g.num_qubits()) {
    return fail_result("circuit/physical qubit count mismatch");
  }
  if (!valid_mapping(mc.initial, g.num_qubits())) {
    return fail_result("initial mapping is not an injection");
  }
  if (!valid_mapping(mc.final_mapping, g.num_qubits())) {
    return fail_result("final mapping is not an injection");
  }

  const std::int32_t n = mc.num_logical();
  MappingTracker tracker(mc.initial, g.num_qubits());
  std::vector<std::uint8_t> h_seen(n, 0);
  std::vector<std::uint8_t> pair_seen(static_cast<std::size_t>(n) * n, 0);
  std::int64_t pairs = 0, hs = 0;
  auto pidx = [n](LogicalQubit lo, LogicalQubit hi) {
    return static_cast<std::size_t>(lo) * n + hi;
  };

  for (std::size_t i = 0; i < mc.circuit.size(); ++i) {
    const Gate& gate = mc.circuit[i];
    if (gate.two_qubit() && !g.adjacent(gate.q0, gate.q1)) {
      return fail_result(gate_ctx(i, gate) + ": qubits not coupled on " +
                         g.name());
    }
    switch (gate.kind) {
      case GateKind::kSwap:
        tracker.apply_swap(gate.q0, gate.q1);
        break;
      case GateKind::kH: {
        const LogicalQubit l = tracker.logical_at(gate.q0);
        if (l == kInvalidQubit) {
          return fail_result(gate_ctx(i, gate) + ": H on empty node");
        }
        if (h_seen[l]) {
          return fail_result(gate_ctx(i, gate) + ": duplicate H on logical " +
                             std::to_string(l));
        }
        h_seen[l] = 1;
        ++hs;
        break;
      }
      case GateKind::kCPhase: {
        const LogicalQubit a = tracker.logical_at(gate.q0);
        const LogicalQubit b = tracker.logical_at(gate.q1);
        if (a == kInvalidQubit || b == kInvalidQubit) {
          return fail_result(gate_ctx(i, gate) + ": CPHASE touches empty node");
        }
        const LogicalQubit lo = std::min(a, b), hi = std::max(a, b);
        if (pair_seen[pidx(lo, hi)]) {
          return fail_result(gate_ctx(i, gate) +
                             ": duplicate CPHASE on logical pair {" +
                             std::to_string(lo) + "," + std::to_string(hi) +
                             "}");
        }
        if (std::abs(gate.angle - qft_angle(lo, hi)) > 1e-12) {
          return fail_result(gate_ctx(i, gate) + ": wrong angle for pair {" +
                             std::to_string(lo) + "," + std::to_string(hi) +
                             "}");
        }
        // Relaxed-ordering window (Type II).
        if (!h_seen[lo]) {
          return fail_result(gate_ctx(i, gate) + ": pair {" +
                             std::to_string(lo) + "," + std::to_string(hi) +
                             "} before H(" + std::to_string(lo) + ")");
        }
        if (h_seen[hi]) {
          return fail_result(gate_ctx(i, gate) + ": pair {" +
                             std::to_string(lo) + "," + std::to_string(hi) +
                             "} after H(" + std::to_string(hi) + ")");
        }
        pair_seen[pidx(lo, hi)] = 1;
        ++pairs;
        break;
      }
      default:
        return fail_result(gate_ctx(i, gate) +
                           ": unexpected gate kind in QFT mapping");
    }
  }

  if (hs != n) {
    return fail_result("missing H gates: got " + std::to_string(hs) + " of " +
                       std::to_string(n));
  }
  if (pairs != qft_pair_count(n)) {
    for (LogicalQubit a = 0; a < n; ++a) {
      for (LogicalQubit b = a + 1; b < n; ++b) {
        if (!pair_seen[pidx(a, b)]) {
          return fail_result("missing CPHASE for pair {" + std::to_string(a) +
                             "," + std::to_string(b) + "}");
        }
      }
    }
  }
  for (LogicalQubit l = 0; l < n; ++l) {
    if (tracker.physical_of(l) != mc.final_mapping[l]) {
      return fail_result("declared final mapping wrong for logical " +
                         std::to_string(l));
    }
  }

  QftCheckResult r;
  r.ok = true;
  r.depth = schedule_asap_with(mc.circuit, latency).depth;
  r.counts = count_gates(mc.circuit);
  return r;
}

}  // namespace qfto
