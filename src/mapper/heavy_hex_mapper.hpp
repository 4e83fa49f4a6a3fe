// Heavy-hex QFT mapper (§4): a non-trivial extension of the LNN pattern to a
// main line with dangling points.
//
// Closed-loop realization of the paper's Algorithm 1 intuition:
//  * the main line runs the LNN interaction/movement rounds;
//  * whenever the occupant of a junction node can interact with the dangling
//    neighbor (relaxed-ordering window open), the junction CPHASE takes
//    priority over main-line traffic — these are the paper's "extra stops";
//  * the g-th dangling point permanently captures logical qubit g: when q_g
//    reaches the junction under dangling point g (traveling right in the
//    reversal flow), it swaps up and disengages from the LNN movement,
//    releasing the dangling point's original occupant into the main line.
// Remaining partners of a parked qubit interact through the junction link as
// they stream past. Depth is 5N + O(1) for the paper's one-dangle-per-four
// configuration and <= 6N + O(1) in general (Appendices 2-3).
#pragma once

#include "arch/heavy_hex.hpp"
#include "circuit/mapped_circuit.hpp"
#include "verify/verifier.hpp"

namespace qfto {

/// `audit`, when non-null, engages fused verification (verify::EmitAudit).
MappedCircuit map_qft_heavy_hex(const HeavyHexLayout& lay,
                                verify::EmitAudit* audit = nullptr);

/// Paper configuration (N multiple of 5).
MappedCircuit map_qft_heavy_hex(std::int32_t n,
                                verify::EmitAudit* audit = nullptr);

/// End-to-end path for a *full* heavy-hex device (Appendix 1): reduce the
/// device to a main line with dangling points and run the same round loop
/// directly on the device's node ids. The returned circuit is valid on
/// dev.graph (the deleted links are simply never used), and the audit runs
/// against dev.graph itself.
MappedCircuit map_qft_heavy_hex_device(const HeavyHexDevice& dev,
                                       verify::EmitAudit* audit = nullptr);

}  // namespace qfto
