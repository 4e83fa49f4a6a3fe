// Test-only SATMAP oracle: the paper-faithful re-encode-per-probe search.
// Every deepening layer and every SWAP-budget probe gets a fresh solver and
// a full re-encode, with the horizon ("every gate executes by T") and the
// at-most-k SWAP bound asserted outright. It shares the step encoding with
// satmap_route (baseline/satmap_encoder.hpp) but none of the activation
// literals, retired horizons or assumed counter outputs the production
// driver carries across probes on one solver — the part it exists to check.
#pragma once

#include "baseline/satmap.hpp"

namespace qfto {

/// Same outcome contract as satmap_route: solved / timed_out / cancelled,
/// the minimal layer count T and, with minimize_swaps, the minimal SWAP
/// count at T. Honours every SatmapOptions field except dump_cnf_path;
/// `stats` sums the effort of all the per-probe solvers.
SatmapResult satmap_route_reference(const Circuit& logical,
                                    const CouplingGraph& g,
                                    const SatmapOptions& opts = {});

}  // namespace qfto
