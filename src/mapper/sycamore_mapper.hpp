// Google Sycamore QFT mapper (§5): units of two rows (a 2m-qubit line each),
// intra-unit QFT via the LNN engine, inter-unit QFT-IE via the synced travel
// path (relaxed ordering), adjacent units exchanged with the 3-step unit
// SWAP, all orchestrated by the unit-level divide-and-conquer (Fig. 14).
// Depth 7N + O(sqrt(N)) per the paper; our closed-loop realization achieves
// the same linear law with a comparable constant (see EXPERIMENTS.md).
#pragma once

#include "circuit/mapped_circuit.hpp"
#include "verify/verifier.hpp"

namespace qfto {

/// m must be even and >= 2; N = m*m. `strict_ie` switches the inter-unit
/// pattern from QFT-IE-relaxed to QFT-IE-strict (§3.3 ablation, ~2x slower).
/// `audit`, when non-null, engages fused verification (verify::EmitAudit).
MappedCircuit map_qft_sycamore(std::int32_t m, bool strict_ie = false,
                               verify::EmitAudit* audit = nullptr);

/// Gate-count bound map_qft_sycamore reserves for side m (N = m*m): covers
/// the gates it emits and over-reserves by under 2% from m = 8 up.
std::int64_t sycamore_gate_reservation(std::int32_t m);

}  // namespace qfto
