// Abstract incremental SAT backend — the narrow waist between SATMAP's
// time-expanded encodings and whatever engine decides them. Modeled on the
// interchangeable solver wrappers of synthesis tools (percy's solver_wrapper,
// the IPASIR surface standardized across solver competitions): new_var /
// add_clause / solve-under-assumptions / value / stats. Backends register in
// a string-keyed registry mirroring the MapperEngine registry in
// src/pipeline/. Production ships one engine, "cdcl" (sat/solver.hpp); an
// external solver plugs in behind SatmapOptions::solver through the IPASIR
// bridge (sat/federation/ipasir_bridge.hpp) without the encoding layer
// changing, and tests register reference backends of their own.
//
// Incremental contract:
//  - Clauses only accumulate; there is no retraction. Constraints that must
//    be switchable are gated behind an activation variable `a` (encode
//    `¬a ∨ C`, pass `a` as an assumption to enable, add unit `¬a` to retire).
//  - solve(assumptions, ...) decides the accumulated formula under the
//    conjunction of the assumption literals. kUnsat under assumptions does
//    NOT poison the instance: a later call with different assumptions may
//    be kSat. No UNSAT cores are exposed — callers own their assumptions.
//  - Anything a backend learns (CDCL learnt clauses, saved phases, activity)
//    may be retained across calls; retained knowledge must be implied by the
//    accumulated clauses alone, never by a previous call's assumptions.
//  - add_clause invalidates the model of a previous kSat; extract models
//    before growing the instance.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace qfto::sat {

/// Literal: variable v (0-based) with sign; encoded as 2v (positive) or
/// 2v+1 (negated).
struct Lit {
  std::int32_t code = -1;

  static Lit pos(std::int32_t v) { return Lit{2 * v}; }
  static Lit neg(std::int32_t v) { return Lit{2 * v + 1}; }
  Lit operator~() const { return Lit{code ^ 1}; }
  std::int32_t var() const { return code >> 1; }
  bool sign() const { return code & 1; }  // true = negated
  bool operator==(const Lit& o) const { return code == o.code; }
};

enum class Result { kSat, kUnsat, kTimeout };

/// Cumulative search-effort counters, kept across solve() calls so a whole
/// iterative-deepening run reads off one struct. Surfaced end-to-end:
/// SatmapResult::stats -> MapResult::timings.sat -> the --serve JSON line.
struct SolverStats {
  std::int64_t conflicts = 0;
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t restarts = 0;
  std::int64_t solve_calls = 0;
  std::int64_t clauses = 0;  // current database size (learnt included)
  std::int64_t vars = 0;

  SolverStats& operator+=(const SolverStats& o) {
    conflicts += o.conflicts;
    decisions += o.decisions;
    propagations += o.propagations;
    restarts += o.restarts;
    solve_calls += o.solve_calls;
    clauses += o.clauses;
    vars += o.vars;
    return *this;
  }
};

class SolverInterface {
 public:
  virtual ~SolverInterface() = default;

  /// Registry key this backend was created under ("cdcl", a plugin name).
  virtual std::string name() const = 0;

  /// Creates a fresh variable, returns its index.
  virtual std::int32_t new_var() = 0;
  virtual std::int32_t num_vars() const = 0;

  /// Adds a clause (empty clause makes the instance trivially UNSAT).
  /// Invalidates the model of a previous kSat call.
  virtual void add_clause(std::vector<Lit> lits) = 0;

  void add_unit(Lit a) { add_clause({a}); }
  void add_binary(Lit a, Lit b) { add_clause({a, b}); }
  void add_ternary(Lit a, Lit b, Lit c) { add_clause({a, b, c}); }
  /// a -> b.
  void add_implication(Lit a, Lit b) { add_clause({~a, b}); }

  /// Decides the accumulated formula under `assumptions`, with an optional
  /// wall-clock budget (<= 0: unlimited). `cancel`, when non-null, is polled
  /// at the same cadence as the deadline: another thread flipping it true
  /// makes solve() return kTimeout within a few thousand decisions.
  virtual Result solve(const std::vector<Lit>& assumptions,
                       double budget_seconds = 0.0,
                       const std::atomic<bool>* cancel = nullptr) = 0;

  /// Model access after kSat (valid until the next add_clause/solve).
  virtual bool value(std::int32_t var) const = 0;

  /// Cumulative counters across all solve() calls on this instance.
  virtual SolverStats stats() const = 0;

  /// Debug hook: writes the accumulated *original* instance (root-level
  /// facts as units, no learnt clauses) in DIMACS CNF, appending
  /// `extra_units` — typically the assumptions of the probe being debugged —
  /// as unit clauses so a TLE'd probe replays verbatim in external solvers.
  virtual void dump_dimacs(std::ostream& out,
                           const std::vector<Lit>& extra_units = {}) const = 0;

  /// File convenience over the stream overload; false when `path` cannot be
  /// opened for writing.
  bool dump_dimacs(const std::string& path,
                   const std::vector<Lit>& extra_units = {}) const;
};

/// Shared DIMACS emission for backends whose instance is "root facts as
/// units + original clauses": comment header, the root-UNSAT stub, the
/// p-line and 1-based literal encoding. Backends hand over their root-fact
/// trail prefix and pointers to their (original, non-learnt) clauses.
void write_dimacs(std::ostream& out, const std::string& backend,
                  bool root_unsat, std::int32_t num_vars,
                  const Lit* root_facts, std::size_t num_root_facts,
                  const std::vector<const std::vector<Lit>*>& clauses,
                  const std::vector<Lit>& extra_units);

// ------------------------------------------------------- backend registry --

using SolverFactory = std::function<std::unique_ptr<SolverInterface>()>;

/// Registers (or replaces, by name) a backend factory. The in-tree "cdcl"
/// backend is pre-registered; external solvers arrive through
/// sat::load_solver_plugin (sat/federation/ipasir_bridge.hpp).
void register_solver_backend(const std::string& name, SolverFactory factory);

/// Registered keys, sorted.
std::vector<std::string> solver_backend_names();

bool has_solver_backend(const std::string& name);

/// Fresh instance of the named backend; throws std::invalid_argument naming
/// the known backends when absent.
std::unique_ptr<SolverInterface> make_solver(const std::string& name);

}  // namespace qfto::sat
