#include "verify/circuit_checker.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>

#include "circuit/dag.hpp"
#include "verify/mapping_tracker.hpp"

namespace qfto {

namespace {

QftCheckResult failure(std::string msg) {
  QftCheckResult r;
  r.ok = false;
  r.error = std::move(msg);
  return r;
}

/// Matching key: kind, operand labels (sorted for the symmetric CPHASE —
/// its unitary ignores orientation), exact angle bit pattern. Routers copy
/// angles verbatim, so bit equality is the right notion.
using GateKey =
    std::tuple<std::uint8_t, std::int32_t, std::int32_t, std::uint64_t>;

GateKey key_of(GateKind kind, std::int32_t a, std::int32_t b, double angle) {
  if (kind == GateKind::kCPhase && a > b) std::swap(a, b);
  std::uint64_t angle_bits = 0;
  std::memcpy(&angle_bits, &angle, sizeof(angle_bits));
  return {static_cast<std::uint8_t>(kind), a, b, angle_bits};
}

/// Streaming form of check_circuit_mapping: all the reference-side
/// preprocessing (SWAP-elimination relabeling, relaxed DAG, ready buckets)
/// happens once at construction; push() matches one emitted gate.
/// `initial` must already be a validated injection of the logical qubits.
class IncrementalCircuitChecker {
 public:
  IncrementalCircuitChecker(const Circuit& logical,
                            const std::vector<PhysicalQubit>& initial,
                            const CouplingGraph& g, LatencyModel latency)
      : graph_(&g),
        latency_(latency),
        n_(logical.num_qubits()),
        num_physical_(g.num_qubits()),
        tracker_(initial, num_physical_),
        busy_(static_cast<std::size_t>(num_physical_), 0) {
    // Reference side: eliminate logical SWAP gates by relabeling — data[w]
    // is the original wire label whose value currently sits on wire w. The
    // canonical circuit is SWAP-free and expressed in data labels, exactly
    // the labels MappingTracker recovers on the hardware side (it follows
    // every physical SWAP, including ones a router emitted for a logical
    // SWAP gate).
    data_.resize(static_cast<std::size_t>(n_));
    std::iota(data_.begin(), data_.end(), 0);
    canon_ = Circuit(n_);
    for (const Gate& gate : logical) {
      if (gate.kind == GateKind::kSwap) {
        std::swap(data_[gate.q0], data_[gate.q1]);
        continue;
      }
      Gate relabeled = gate;
      relabeled.q0 = data_[gate.q0];
      if (gate.two_qubit()) relabeled.q1 = data_[gate.q1];
      canon_.append(relabeled);
    }

    // Relaxed dependency DAG over the canonical circuit; `ready` buckets the
    // currently schedulable gates by matching key, so each emitted gate is
    // matched in O(log #keys). Equal-key gates that are simultaneously ready
    // have identical successor barriers (same kind, wires, angle), so
    // popping any of them is safe.
    dag_ = build_relaxed_dag(canon_);
    indegree_.resize(canon_.size());
    for (std::size_t i = 0; i < canon_.size(); ++i) {
      indegree_[i] = static_cast<std::int32_t>(dag_.pred[i].size());
    }
    for (std::size_t i = 0; i < canon_.size(); ++i) {
      if (indegree_[i] == 0) {
        const Gate& c = canon_[i];
        ready_[key_of(c.kind, c.q0, c.q1, c.angle)].push_back(
            static_cast<std::int32_t>(i));
      }
    }
  }

  bool push(const Gate& gate) {
    if (failed_) return false;
    const std::int64_t gi = gate_index_++;
    const bool two = gate.two_qubit();
    if (gate.q0 < 0 || gate.q0 >= num_physical_ ||
        (two && (gate.q1 < 0 || gate.q1 >= num_physical_ ||
                 gate.q1 == gate.q0))) {
      return fail(at(gi, gate) + ": physical qubit out of range");
    }
    if (two && !graph_->adjacent(gate.q0, gate.q1)) {
      return fail(at(gi, gate) + ": not a coupling-graph edge");
    }

    // Fused ASAP depth + counts (same recurrence as schedule_asap_with).
    Cycle start = busy_[gate.q0];
    if (two) start = std::max(start, busy_[gate.q1]);
    const Cycle finish_at = start + latency_(gate);
    busy_[gate.q0] = finish_at;
    if (two) busy_[gate.q1] = finish_at;
    depth_ = std::max(depth_, finish_at);
    switch (gate.kind) {
      case GateKind::kH: ++counts_.h; break;
      case GateKind::kX: ++counts_.x; break;
      case GateKind::kRz: ++counts_.rz; break;
      case GateKind::kCPhase: ++counts_.cphase; break;
      case GateKind::kSwap: ++counts_.swap; break;
      case GateKind::kCnot: ++counts_.cnot; break;
    }

    if (gate.kind == GateKind::kSwap) {
      tracker_.apply_swap(gate.q0, gate.q1);
      return true;
    }
    const LogicalQubit l0 = tracker_.logical_at(gate.q0);
    const LogicalQubit l1 = two ? tracker_.logical_at(gate.q1) : kInvalidQubit;
    if (l0 == kInvalidQubit || (two && l1 == kInvalidQubit)) {
      return fail(at(gi, gate) +
                  ": acts on a physical qubit holding no logical qubit");
    }
    const auto it = ready_.find(key_of(gate.kind, l0, l1, gate.angle));
    if (it == ready_.end() || it->second.empty()) {
      return fail(at(gi, gate) +
                  ": no matching logical gate is schedulable here "
                  "(wrong gate, angle, or dependency order)");
    }
    const std::int32_t ci = it->second.back();
    it->second.pop_back();
    if (it->second.empty()) ready_.erase(it);
    ++matched_;
    for (const std::int32_t succ : dag_.succ[ci]) {
      if (--indegree_[succ] == 0) {
        const Gate& c = canon_[static_cast<std::size_t>(succ)];
        ready_[key_of(c.kind, c.q0, c.q1, c.angle)].push_back(succ);
      }
    }
    return true;
  }

  /// `declared_final` must have one entry per logical qubit.
  QftCheckResult finish(const std::vector<PhysicalQubit>& declared_final) {
    if (failed_) return failure(error_);
    if (matched_ != canon_.size()) {
      return failure("mapped circuit is missing " +
                     std::to_string(canon_.size() - matched_) +
                     " logical gate(s)");
    }
    for (std::int32_t w = 0; w < n_; ++w) {
      // Output of logical wire w is data[w]'s value; the tracker knows
      // where that data ended up physically.
      if (declared_final[w] != tracker_.physical_of(data_[w])) {
        return failure(
            "final mapping mismatch on logical qubit " + std::to_string(w) +
            ": declared " + std::to_string(declared_final[w]) + ", tracked " +
            std::to_string(tracker_.physical_of(data_[w])));
      }
    }
    QftCheckResult r;
    r.ok = true;
    r.depth = depth_;
    r.counts = counts_;
    return r;
  }

 private:
  static std::string at(std::int64_t gi, const Gate& gate) {
    return "gate " + std::to_string(gi) + " (" + gate.to_string() + ")";
  }
  bool fail(std::string msg) {
    failed_ = true;
    error_ = std::move(msg);
    return false;
  }

  const CouplingGraph* graph_;
  LatencyModel latency_;
  std::int32_t n_ = 0;
  std::int32_t num_physical_ = 0;
  MappingTracker tracker_;
  std::vector<Cycle> busy_;

  std::vector<std::int32_t> data_;
  Circuit canon_{0};
  Dag dag_;
  std::vector<std::int32_t> indegree_;
  std::map<GateKey, std::vector<std::int32_t>> ready_;
  Cycle depth_ = 0;
  GateCounts counts_;
  std::size_t matched_ = 0;
  std::int64_t gate_index_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace

// Thin driver over IncrementalCircuitChecker: header validation needs the
// whole MappedCircuit, the per-gate matching is one push() per emitted gate.
QftCheckResult check_circuit_mapping(const MappedCircuit& mc,
                                     const Circuit& logical,
                                     const CouplingGraph& g,
                                     const LatencyModel& latency) {
  const std::int32_t n = logical.num_qubits();
  const std::int32_t num_physical = g.num_qubits();
  if (mc.circuit.num_qubits() != num_physical) {
    return failure("mapped circuit register size does not match the graph");
  }
  if (mc.num_logical() != n) {
    return failure("initial mapping size does not match the logical circuit");
  }
  if (static_cast<std::int32_t>(mc.final_mapping.size()) != n) {
    return failure("final mapping size does not match the logical circuit");
  }
  if (!valid_mapping(mc.initial, num_physical)) {
    return failure("initial mapping is not an injection");
  }
  if (!valid_mapping(mc.final_mapping, num_physical)) {
    return failure("final mapping is not an injection");
  }
  IncrementalCircuitChecker checker(logical, mc.initial, g, latency);
  for (const Gate& gate : mc.circuit) {
    if (!checker.push(gate)) break;
  }
  return checker.finish(mc.final_mapping);
}

}  // namespace qfto
