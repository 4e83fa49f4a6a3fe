// SATMAP-style optimal mapper (Molavi et al., MICRO'22) on top of the
// pluggable sat::SolverInterface backends: a time-expanded SAT encoding of
// qubit mapping — free initial placement, per-step edge-local movement with
// swap consistency, adjacency for every two-qubit gate, strict dependency via
// scheduled-prefix variables. The minimal number of layers T is found by
// iterative deepening, then the SWAP count is minimized at that T with a
// sequential-counter budget by SAT-UNSAT descent: each probe asks for one
// SWAP fewer than the best model so far, and the first UNSAT proves it
// optimal.
//
// One search driver: ONE solver instance for the whole search. Each horizon
// T's "every gate executes by T" constraint is gated behind a fresh
// activation literal, deepening solves under the assumption of the current
// horizon's activator (retiring the previous one with a unit), and the SWAP
// descent tightens a sequential-counter output chain with assumptions — so
// learnt clauses, saved phases and activity carry across every probe
// instead of being rebuilt and thrown away. A run pays for exactly one UNSAT
// proof in the descent, its last probe.
//
// As in the paper (Table 1), the search space explodes with qubit count:
// expect answers only for the smallest instances and TLE elsewhere — that
// behaviour is part of what we reproduce.
#pragma once

#include <atomic>
#include <string>

#include "arch/coupling_graph.hpp"
#include "circuit/circuit.hpp"
#include "circuit/mapped_circuit.hpp"
#include "sat/solver_interface.hpp"

namespace qfto {

struct SatmapOptions {
  double time_budget_seconds = 10.0;  // paper used 2h; scaled for CI
  std::int32_t max_layers = 96;
  bool minimize_swaps = true;

  /// SAT backend registry key (see sat::solver_backend_names()): "cdcl" is
  /// the in-tree CDCL engine; IPASIR plugins register under their own names
  /// (sat/federation/ipasir_bridge.hpp). Unknown names throw
  /// std::invalid_argument at route time.
  std::string solver = "cdcl";

  /// Cooperative cancellation: when non-null, satmap_route polls the flag
  /// between deepening layers and the solver polls it inside the search
  /// loop, so another thread flipping it true aborts the run within a few
  /// thousand decisions. Must outlive the call.
  const std::atomic<bool>* cancel = nullptr;

  /// Debug hook: when non-empty, the instance in flight when the run ended
  /// (most usefully a TLE'd probe) is written here in DIMACS CNF, with the
  /// probe's assumptions appended as unit clauses, so it replays verbatim in
  /// external solvers. Serving knob — never part of the result.
  std::string dump_cnf_path;

  /// When non-null, receives the run's cumulative solver statistics (same
  /// numbers as SatmapResult::stats). Serving knob the pipeline uses to
  /// surface stats into MapResult::timings without widening MapperEngine.
  sat::SolverStats* stats_out = nullptr;
};

struct SatmapResult {
  /// All three false: no schedule within SatmapOptions::max_layers.
  bool solved = false;     // found a provably depth-minimal schedule
  bool timed_out = false;  // deadline expired (the Table 1 TLE outcome)
  bool cancelled = false;  // SatmapOptions::cancel flipped mid-solve
  MappedCircuit mapped;    // valid when solved
  std::int32_t layers = 0;
  std::int64_t swaps = 0;
  double seconds = 0.0;
  /// Cumulative search effort across every probe (deepening + SWAP
  /// minimization).
  sat::SolverStats stats;
};

/// Routes an arbitrary logical circuit; dependencies are its strict DAG.
SatmapResult satmap_route(const Circuit& logical, const CouplingGraph& g,
                          const SatmapOptions& opts = {});

}  // namespace qfto
