// Static verifier for mapped QFT circuits — the analogue of the paper's
// correctness simulator, but exhaustive and size-independent. It tracks the
// logical mapping through the hardware circuit and asserts:
//   1. every two-qubit gate acts on a coupling-graph edge;
//   2. every logical pair {i,j} receives exactly one CPHASE, with the QFT
//      angle pi/2^{j-i};
//   3. every logical qubit receives exactly one H;
//   4. relaxed-ordering validity (Type II of §3.1): a CPHASE on {i,j}, i<j,
//      executes after H(i) and before H(j) — a schedule satisfying this is
//      unitarily equal to the textbook QFT, which the equivalence tests
//      confirm independently on small sizes;
//   5. the declared final mapping matches the tracked one.
//
// IncrementalQftChecker is the streaming form: gates are fed one at a time
// and the adjacency/ordering/angle checks, the latency-weighted ASAP depth
// (charged from the LatencyModel's cycle table) and the gate counts are all
// maintained in that single pass.
// Pair bookkeeping is a packed triangular bitset (n(n-1)/2 bits ≈ n²/16
// bytes). check_qft_mapping is a thin driver over it and the verifier the
// pipeline runs on routed QFTs (sabre, satmap); the structured mappers are
// judged by the fused EmitAudit instead (verify/verifier.hpp). Tests compare
// both against an independent multi-pass replay checker
// (tests/support/qft_replay.hpp).
#pragma once

#include <string>
#include <vector>

#include "arch/coupling_graph.hpp"
#include "arch/latency_model.hpp"
#include "circuit/mapped_circuit.hpp"
#include "circuit/stats.hpp"

namespace qfto {

struct QftCheckResult {
  bool ok = false;
  std::string error;      // empty when ok
  Cycle depth = 0;        // under the supplied latency model
  GateCounts counts;

  explicit operator bool() const { return ok; }
};

class IncrementalQftChecker {
 public:
  /// Begins verification of a QFT(initial.size()) mapping onto `g` with
  /// `initial` as the logical->physical entry mapping. The graph must
  /// outlive the checker; `initial` must be an injection (throws otherwise —
  /// check_qft_mapping pre-validates and reports instead).
  IncrementalQftChecker(const std::vector<PhysicalQubit>& initial,
                        const CouplingGraph& g,
                        LatencyModel latency = LatencyModel());

  /// Feeds the next gate. Returns false once verification has failed;
  /// subsequent gates are ignored.
  bool push(const Gate& gate);

  /// push() minus the wire-range guards — for gates whose indices were
  /// already validated against a Circuit with the graph's qubit count (the
  /// check_qft_mapping driver). Out-of-range indices are undefined here.
  bool push_trusted(const Gate& gate);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  std::int64_t gates_seen() const { return gates_seen_; }

  /// Latency-weighted ASAP makespan of the gates fed so far.
  Cycle depth() const { return depth_; }
  const GateCounts& counts() const { return counts_; }

  /// Logical qubit currently at physical node p (kInvalidQubit if empty).
  LogicalQubit logical_at(PhysicalQubit p) const { return p2l_[p]; }

  /// Completes the check: totals (every H, every pair exactly once) and the
  /// declared final mapping. The verdict carries depth and gate counts.
  QftCheckResult finish(const std::vector<PhysicalQubit>& declared_final);

 private:
  template <bool kTrusted>
  bool push_impl(const Gate& gate);

  bool fail_gate(const Gate& gate, const std::string& what);
  bool fail(std::string msg);

  bool h_bit(LogicalQubit l) const {
    return (h_seen_[static_cast<std::size_t>(l) >> 6] >>
            (static_cast<std::size_t>(l) & 63)) &
           1u;
  }
  void set_h_bit(LogicalQubit l) {
    h_seen_[static_cast<std::size_t>(l) >> 6] |=
        std::uint64_t{1} << (static_cast<std::size_t>(l) & 63);
  }

  /// Packed upper-triangular index of pair (lo,hi), 0 <= lo < hi < n.
  /// row_base_ replaces the closed-form lo*(2n-lo-1)/2 multiply with one
  /// table load on the per-gate path.
  std::size_t pair_index(LogicalQubit lo, LogicalQubit hi) const {
    return static_cast<std::size_t>(row_base_[lo] + (hi - lo - 1));
  }
  bool pair_bit(std::size_t idx) const {
    return (pair_seen_[idx >> 6] >> (idx & 63)) & 1u;
  }
  void set_pair_bit(std::size_t idx) {
    pair_seen_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }

  const CouplingGraph* graph_;
  LatencyModel model_;

  std::int32_t n_ = 0;
  std::int32_t num_physical_ = 0;
  // Only the physical->logical direction is tracked while streaming (a SWAP
  // is then branch-free); the logical->physical view is inverted once in
  // finish() for the final-mapping comparison.
  std::vector<LogicalQubit> p2l_;
  std::vector<double> angle_by_gap_;      // qft_angle(0, gap), gap = hi - lo
  std::vector<std::uint64_t> h_seen_;     // one bit per logical qubit
  std::vector<std::uint64_t> pair_seen_;  // triangular, n(n-1)/2 bits
  std::vector<std::uint64_t> row_base_;   // pair_index of (lo, lo+1) per row
  std::int64_t hs_ = 0;
  std::int64_t pairs_ = 0;
  GateCounts counts_;

  std::vector<Cycle> ready_;  // fused ASAP scheduler state, one per wire
  Cycle depth_ = 0;

  std::int64_t gates_seen_ = 0;
  bool failed_ = false;
  std::string error_;
};

/// Single-pass verification driven by IncrementalQftChecker. Depth is
/// charged under `latency` (unit by default).
QftCheckResult check_qft_mapping(const MappedCircuit& mc,
                                 const CouplingGraph& g,
                                 const LatencyModel& latency = LatencyModel());

}  // namespace qfto
