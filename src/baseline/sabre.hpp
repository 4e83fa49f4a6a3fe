// SABRE (Li, Ding, Xie — ASPLOS'19), reimplemented as the paper's primary
// baseline. Heuristic SWAP insertion with a front layer, a look-ahead
// extended set, and a decay term that spreads SWAPs across qubits; the
// initial mapping is refined with forward/backward passes, and the whole
// procedure is repeated over random seeds keeping the best result — which is
// exactly why its output varies run to run (Fig. 27).
#pragma once

#include <cstdint>
#include <optional>

#include "arch/coupling_graph.hpp"
#include "circuit/mapped_circuit.hpp"

namespace qfto {

class DeviceModel;

/// Work counters of one sabre_route / sabre_route_single call, summed over
/// every trial and pass. A blocked step chooses one SWAP. The step state
/// (extended set, endpoint index, candidate deltas) is patched, never
/// rebuilt: after a SWAP for the pairs it moved, and after executed gates
/// for the pairs that left or joined the front layer and the extended set.
/// Only the candidates a patch can have changed are priced again. Every
/// count is a function of the inputs, not of the machine.
struct SabreStats {
  std::int64_t passes = 0;         // routing passes, refinement included
  std::int64_t blocked_steps = 0;  // steps that chose a SWAP
  std::int64_t rebuilt_steps = 0;  // blocked steps that start a pass or
                                   // follow an executed gate
  std::int64_t deltas_computed = 0;  // candidate deltas priced
  std::int64_t swaps = 0;          // SWAPs in the returned route
};

struct SabreOptions {
  std::uint64_t seed = 1;
  std::int32_t trials = 5;            // independent random restarts
  std::int32_t bidirectional_passes = 2;  // initial-mapping refinement sweeps
  double extended_weight = 0.5;       // W in the look-ahead term
  std::int32_t extended_size = 20;    // |E|
  double decay_delta = 0.001;
  std::int32_t decay_reset = 5;       // SWAPs between decay resets
  bool use_relaxed_dag = false;       // ablation: give SABRE commutativity

  // Fidelity-aware cost mode (MapOptions::objective = fidelity). When set,
  // candidate SWAPs additionally pay their edge's calibrated error cost
  // (normalized -log10(1-e2), scaled by fidelity_weight) and the trial
  // winner is the route with the best expected log-success instead of the
  // smallest depth. `device` holds the calibration; when null the default
  // NoiseModel rates apply (every edge equal, so only trial selection
  // changes). The depth objective's path is untouched — with
  // fidelity_objective false, routing is bit-identical to before.
  bool fidelity_objective = false;
  double fidelity_weight = 1.0;
  const DeviceModel* device = nullptr;  // not owned; must outlive the route

  /// When set, receives the call's SabreStats (partial if routing throws).
  /// Shapes no output, so it is not part of the result-cache key.
  SabreStats* stats_out = nullptr;
};

/// Routes `logical` onto `g`. The circuit may contain any gate kinds; only
/// two-qubit gates constrain routing.
MappedCircuit sabre_route(const Circuit& logical, const CouplingGraph& g,
                          const SabreOptions& opts = {});

/// One fixed-seed pass (no restarts/refinement) — exposes the raw randomness
/// for the Fig. 27 reproduction.
MappedCircuit sabre_route_single(const Circuit& logical, const CouplingGraph& g,
                                 std::uint64_t seed,
                                 const SabreOptions& opts = {});

}  // namespace qfto
