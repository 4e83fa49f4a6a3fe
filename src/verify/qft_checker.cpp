#include "verify/qft_checker.hpp"

#include <algorithm>
#include <cmath>

#include "circuit/qft_spec.hpp"

namespace qfto {

namespace {

QftCheckResult fail_result(std::string msg) {
  QftCheckResult r;
  r.ok = false;
  r.error = std::move(msg);
  return r;
}

std::string gate_ctx(std::int64_t i, const Gate& g) {
  return "gate #" + std::to_string(i) + " " + g.to_string();
}

}  // namespace

// ------------------------------------------------- IncrementalQftChecker --

IncrementalQftChecker::IncrementalQftChecker(
    const std::vector<PhysicalQubit>& initial, const CouplingGraph& g,
    LatencyModel latency)
    : graph_(&g),
      model_(latency),
      n_(static_cast<std::int32_t>(initial.size())),
      num_physical_(g.num_qubits()),
      p2l_(static_cast<std::size_t>(g.num_qubits()), kInvalidQubit),
      h_seen_((static_cast<std::size_t>(n_) + 63) / 64, 0),
      pair_seen_((static_cast<std::size_t>(qft_pair_count(n_)) + 63) / 64, 0),
      ready_(static_cast<std::size_t>(g.num_qubits()), 0) {
  require(n_ <= num_physical_,
          "IncrementalQftChecker: more logical than physical qubits");
  for (std::size_t l = 0; l < initial.size(); ++l) {
    const PhysicalQubit p = initial[l];
    require(p >= 0 && p < num_physical_,
            "IncrementalQftChecker: mapping out of range");
    require(p2l_[p] == kInvalidQubit,
            "IncrementalQftChecker: mapping not injective");
    p2l_[p] = static_cast<LogicalQubit>(l);
  }
  // Expected CPHASE angles depend only on the logical gap; resolving them
  // once keeps qft_angle (and its libm scaling) out of the per-gate path.
  angle_by_gap_.resize(static_cast<std::size_t>(n_ > 0 ? n_ : 1), 0.0);
  for (std::int32_t gap = 1; gap < n_; ++gap) {
    angle_by_gap_[static_cast<std::size_t>(gap)] = qft_angle(0, gap);
  }
  row_base_.resize(static_cast<std::size_t>(n_ > 0 ? n_ : 1), 0);
  std::uint64_t base = 0;
  for (std::int32_t lo = 0; lo < n_; ++lo) {
    row_base_[static_cast<std::size_t>(lo)] = base;
    base += static_cast<std::uint64_t>(n_ - 1 - lo);
  }
}

bool IncrementalQftChecker::fail(std::string msg) {
  failed_ = true;
  error_ = std::move(msg);
  return false;
}

bool IncrementalQftChecker::fail_gate(const Gate& gate,
                                      const std::string& what) {
  return fail(gate_ctx(gates_seen_ - 1, gate) + what);
}

template <bool kTrusted>
bool IncrementalQftChecker::push_impl(const Gate& gate) {
  if (failed_) return false;
  ++gates_seen_;
  const bool two = gate.two_qubit();
  if (!kTrusted) {
    // Gates may arrive from outside a Circuit (which validates on append),
    // so guard the wire indices before they index checker state.
    if (gate.q0 < 0 || gate.q0 >= num_physical_) {
      return fail_gate(gate, ": physical qubit out of range");
    }
    if (two &&
        (gate.q1 < 0 || gate.q1 >= num_physical_ || gate.q1 == gate.q0)) {
      return fail_gate(gate, ": physical qubit out of range");
    }
  }
  // One probe serves both the adjacency check and the latency charge.
  LinkType link = LinkType::kStandard;
  if (two) {
    const auto lt = graph_->link_type(gate.q0, gate.q1);
    if (!lt) {
      return fail_gate(gate, ": qubits not coupled on " + graph_->name());
    }
    link = *lt;
  }
  switch (gate.kind) {
    case GateKind::kSwap: {
      const LogicalQubit la = p2l_[gate.q0];
      p2l_[gate.q0] = p2l_[gate.q1];
      p2l_[gate.q1] = la;
      ++counts_.swap;
      break;
    }
    case GateKind::kH: {
      const LogicalQubit l = p2l_[gate.q0];
      if (l == kInvalidQubit) return fail_gate(gate, ": H on empty node");
      if (h_bit(l)) {
        return fail_gate(gate, ": duplicate H on logical " + std::to_string(l));
      }
      set_h_bit(l);
      ++hs_;
      ++counts_.h;
      break;
    }
    case GateKind::kCPhase: {
      const LogicalQubit a = p2l_[gate.q0];
      const LogicalQubit b = p2l_[gate.q1];
      if (a == kInvalidQubit || b == kInvalidQubit) {
        return fail_gate(gate, ": CPHASE touches empty node");
      }
      const LogicalQubit lo = std::min(a, b), hi = std::max(a, b);
      const std::size_t idx = pair_index(lo, hi);
      if (pair_bit(idx)) {
        return fail_gate(gate, ": duplicate CPHASE on logical pair {" +
                                   std::to_string(lo) + "," +
                                   std::to_string(hi) + "}");
      }
      if (std::abs(gate.angle -
                   angle_by_gap_[static_cast<std::size_t>(hi - lo)]) > 1e-12) {
        return fail_gate(gate, ": wrong angle for pair {" + std::to_string(lo) +
                                   "," + std::to_string(hi) + "}");
      }
      // Relaxed-ordering window (Type II).
      if (!h_bit(lo)) {
        return fail_gate(gate, ": pair {" + std::to_string(lo) + "," +
                                   std::to_string(hi) + "} before H(" +
                                   std::to_string(lo) + ")");
      }
      if (h_bit(hi)) {
        return fail_gate(gate, ": pair {" + std::to_string(lo) + "," +
                                   std::to_string(hi) + "} after H(" +
                                   std::to_string(hi) + ")");
      }
      set_pair_bit(idx);
      ++pairs_;
      ++counts_.cphase;
      break;
    }
    default:
      return fail_gate(gate, ": unexpected gate kind in QFT mapping");
  }
  // Fused ASAP scheduling — same arithmetic as schedule_asap, maintained
  // inline so verification never needs a second walk over the circuit.
  Cycle t = ready_[gate.q0];
  if (two) t = std::max(t, ready_[gate.q1]);
  const Cycle dur = model_.cycles_on_link(gate.kind, link);
  ready_[gate.q0] = t + dur;
  if (two) ready_[gate.q1] = t + dur;
  depth_ = std::max(depth_, t + dur);
  return true;
}

bool IncrementalQftChecker::push(const Gate& gate) {
  return push_impl<false>(gate);
}

bool IncrementalQftChecker::push_trusted(const Gate& gate) {
  return push_impl<true>(gate);
}

QftCheckResult IncrementalQftChecker::finish(
    const std::vector<PhysicalQubit>& declared_final) {
  if (failed_) return fail_result(error_);
  if (hs_ != n_) {
    fail("missing H gates: got " + std::to_string(hs_) + " of " +
         std::to_string(n_));
    return fail_result(error_);
  }
  if (pairs_ != qft_pair_count(n_)) {
    // Identify one missing pair for the error message. Word-parallel: the
    // packed triangular bitset is compared 64 pairs at a time against
    // all-ones (O(n²/64) instead of O(n²) bit probes), then the first zero
    // bit is mapped back to (a,b) by binary search on row_base_.
    const std::uint64_t total =
        static_cast<std::uint64_t>(qft_pair_count(n_));
    for (std::size_t w = 0; w < pair_seen_.size(); ++w) {
      const std::uint64_t valid =
          std::min<std::uint64_t>(64, total - 64 * w);
      const std::uint64_t want =
          valid == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << valid) - 1;
      const std::uint64_t missing = ~pair_seen_[w] & want;
      if (missing == 0) continue;
      const std::uint64_t idx =
          64 * w + static_cast<std::uint64_t>(__builtin_ctzll(missing));
      const auto it = std::upper_bound(row_base_.begin(),
                                       row_base_.begin() + n_, idx);
      const auto a =
          static_cast<LogicalQubit>(it - row_base_.begin() - 1);
      const auto b = static_cast<LogicalQubit>(
          a + 1 + (idx - row_base_[static_cast<std::size_t>(a)]));
      fail("missing CPHASE for pair {" + std::to_string(a) + "," +
           std::to_string(b) + "}");
      return fail_result(error_);
    }
  }
  if (static_cast<std::int32_t>(declared_final.size()) != n_) {
    fail("declared final mapping has wrong size");
    return fail_result(error_);
  }
  // Invert the tracked occupancy once for the final-mapping comparison.
  std::vector<PhysicalQubit> physical_of(static_cast<std::size_t>(n_),
                                         kInvalidQubit);
  for (PhysicalQubit p = 0; p < num_physical_; ++p) {
    if (p2l_[p] != kInvalidQubit) physical_of[p2l_[p]] = p;
  }
  for (LogicalQubit l = 0; l < n_; ++l) {
    if (physical_of[l] != declared_final[l]) {
      fail("declared final mapping wrong for logical " + std::to_string(l));
      return fail_result(error_);
    }
  }
  QftCheckResult r;
  r.ok = true;
  r.depth = depth_;
  r.counts = counts_;
  return r;
}

// ------------------------------------------------------- streaming driver --

QftCheckResult check_qft_mapping(const MappedCircuit& mc,
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
  IncrementalQftChecker checker(mc.initial, g, latency);
  // Circuit::append validated every wire index and the header check matched
  // the circuit against the graph's qubit count, so the trusted path applies.
  for (const Gate& gate : mc.circuit) {
    if (!checker.push_trusted(gate)) break;
  }
  return checker.finish(mc.final_mapping);
}

}  // namespace qfto
