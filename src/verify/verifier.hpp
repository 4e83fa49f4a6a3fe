// Fused emit-time verification for the structured mappers.
//
// Every result is judged by exactly one verifier, and the pipeline picks it:
//
//   * structured mappers (lnn, heavy_hex, heavy_hex_device, sycamore,
//     lattice, grid, lnn_baseline) — EmitAudit, below: a LayerEmitter
//     constructed with one maintains the checker's ASAP depth/count
//     arithmetic gate-by-gate *as it emits*. The emitter's construction-time
//     invariants (adjacency require on every two-qubit gate, QftState's
//     exactly-once pair/H windows, MappingTracker injectivity, angles
//     stamped from logical ids) discharge exactly the checker's per-gate
//     obligations, so the audited result is bit-identical to
//     check_qft_mapping while the separate O(gates) pass disappears;
//   * routed QFTs (sabre, satmap), which bypass LayerEmitter — the streaming
//     check_qft_mapping (verify/qft_checker.hpp);
//   * general circuits — check_circuit_mapping
//     (verify/circuit_checker.hpp).
//
// tests/test_pipeline.cpp cross-checks every engine's verdict against the
// streaming checker and the test-only replay oracle.
#pragma once

#include "arch/latency_model.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace verify {

/// Fused emit-time verification handle. Construct with the latency model the
/// result will be judged under, pass to LayerEmitter (directly or through
/// MapOptions); after the mapper finishes, `engaged` says whether the emitter
/// audited (structured emitters do; routed baselines that bypass
/// LayerEmitter leave it false and the pipeline falls back to
/// check_qft_mapping), and `result` carries the verdict.
///
/// `store_gates` false puts the emitter in summary mode: every emit rule and
/// the audit arithmetic still run, but no gate is stored, and finish()
/// returns a circuit with zero gates and zero capacity. MapperPipeline::
/// summarize sets it; a router that bypasses LayerEmitter ignores it.
struct EmitAudit {
  LatencyModel model;
  bool store_gates = true;
  bool engaged = false;
  QftCheckResult result;
};

}  // namespace verify
}  // namespace qfto
