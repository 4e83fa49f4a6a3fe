// Test-only QFT checker oracle: the original multi-pass algorithm. It
// replays the mapping with a MappingTracker over an n×n pair matrix, then
// schedules (schedule_asap_with) and counts in separate walks. It shares no
// state and no per-gate code with IncrementalQftChecker, so tests assert the
// two agree bit-for-bit on verdict, error text, depth and counts.
#pragma once

#include "arch/coupling_graph.hpp"
#include "arch/latency_model.hpp"
#include "circuit/mapped_circuit.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {

/// Same contract as check_qft_mapping: identical error strings on every
/// failure, depth under `latency` and gate counts on success.
QftCheckResult check_qft_mapping_replay(const MappedCircuit& mc,
                                        const CouplingGraph& g,
                                        const LatencyModel& latency =
                                            LatencyModel());

}  // namespace qfto
