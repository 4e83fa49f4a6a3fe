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
// Two search drivers share the encoding:
//  - incremental (default): ONE solver instance for the whole search. Each
//    horizon T's "every gate executes by T" constraint is gated behind a
//    fresh activation literal, deepening solves under the assumption of the
//    current horizon's activator (retiring the previous one with a unit),
//    and the SWAP descent tightens a sequential-counter output chain with
//    assumptions — so learnt clauses, saved phases and activity carry across
//    every probe instead of being rebuilt and thrown away. A run pays for
//    exactly one UNSAT proof in the descent, its last probe.
//  - monolithic: the paper-faithful re-encode-per-probe loop, kept as the
//    differential oracle and the bench_sat baseline.
// Both drivers produce the same solved/TLE/cancelled verdicts, the same
// minimal T and the same minimal SWAP count.
//
// As in the paper (Table 1), the search space explodes with qubit count:
// expect answers only for the smallest instances and TLE elsewhere — that
// behaviour is part of what we reproduce.
#pragma once

#include <atomic>
#include <string>
#include <vector>

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
  /// the in-tree CDCL engine, "dpll" the reference backend for differential
  /// testing. Unknown names throw std::invalid_argument at route time.
  std::string solver = "cdcl";

  /// Drive the search on one incremental instance (assumption-based
  /// deepening); off re-encodes from scratch for every probe. Outcomes are
  /// identical — the flag exists so the two paths stay comparable in tests
  /// and benchmarks.
  bool incremental = true;

  /// Race each probe across `lanes` diversified solver instances — the
  /// first definitive verdict wins and cancels the sibling lanes
  /// (src/sat/federation/portfolio.hpp). Verdicts, minimal T and minimal
  /// SWAP count are identical to a single-backend run; which lane decides
  /// each probe (and therefore which of the equally-optimal schedules is
  /// extracted) is wall-clock dependent. The effective lane count is
  /// clamped to the machine's hardware concurrency — racing more lanes
  /// than cores only time-slices them against one another.
  bool portfolio = false;
  std::int32_t lanes = 2;

  /// Backends spread round-robin across portfolio lanes; empty -> every
  /// lane runs `solver`, told apart by diversification seeds.
  std::vector<std::string> portfolio_backends;

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

  /// When non-null, receives SatmapResult::winner (see there). Serving
  /// knob, mirroring stats_out.
  std::string* winner_out = nullptr;
};

struct SatmapResult {
  bool solved = false;     // found a provably depth-minimal schedule
  bool timed_out = false;  // TLE (the Table 1 outcome for >= 10 qubits)
  bool cancelled = false;  // SatmapOptions::cancel flipped mid-solve
  MappedCircuit mapped;    // valid when solved
  std::int32_t layers = 0;
  std::int64_t swaps = 0;
  double seconds = 0.0;
  /// Cumulative search effort across every probe (deepening + SWAP
  /// minimization), summed over solver instances on the monolithic path —
  /// and over every racing lane (losers included) on a portfolio run.
  sat::SolverStats stats;
  /// Portfolio runs: label of the lane that decided the last definitive
  /// probe ("cdcl#1"). Empty for single-backend runs.
  std::string winner;
};

/// Routes an arbitrary logical circuit; dependencies are its strict DAG.
SatmapResult satmap_route(const Circuit& logical, const CouplingGraph& g,
                          const SatmapOptions& opts = {});

}  // namespace qfto
