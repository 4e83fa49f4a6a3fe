// IPASIR bridge: external incremental SAT solvers federated behind
// sat::SolverInterface. A shared object exporting the IPASIR C ABI is
// dlopen'ed once (load_solver_plugin / QFTO_SOLVER_PLUGINS), its surface is
// resolved into an IpasirApi table, and a factory minting IpasirSolver
// instances over that table is registered in the same string-keyed backend
// registry the in-tree "cdcl" engine lives in — SATMAP, the serve
// path and the conformance battery reach a federated solver exactly the way
// they reach a built-in one, by name.
//
// Contract notes:
//  * Cooperative cancel and the wall-clock budget ride ipasir_set_terminate:
//    the callback polls the caller's cancel atomic and a Deadline, so
//    mid-solve aborts work without the external solver knowing our types.
//  * The bridge mirrors every original clause locally for dump_dimacs —
//    IPASIR has no read-back — which costs memory proportional to the
//    instance, the price of keeping the TLE-replay debug path alive.
//  * Search-effort counters (conflicts/decisions/...) stay zero: IPASIR
//    exposes no statistics surface. solve_calls/clauses/vars are tracked
//    bridge-side, so served stats remain meaningful.
//  * Loaded libraries are never dlclose'd: registered factories (and any
//    live solver) keep executing code from them for the process lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sat/federation/ipasir.hpp"
#include "sat/solver_interface.hpp"

namespace qfto::sat {

/// Where a registry key comes from, for `qftmap --list-solvers`: operators
/// auditing a replica see exactly which code answers to each backend name.
struct BackendProvenance {
  std::string name;       // registry key
  bool plugin = false;    // false: compiled into the binary
  std::string path;       // shared-object path (plugins only)
  std::string signature;  // ipasir_signature() string (plugins only)
};

/// Loads an IPASIR shared object and registers it as a solver backend.
/// `spec` is `path.so` or `name=path.so`; without an explicit name the
/// registry key is derived from the file stem (`libfoo.so.5` -> "foo").
/// Returns the registry key. Throws std::runtime_error when the object
/// cannot be loaded or is missing part of the required IPASIR surface.
/// Re-loading an existing name replaces the backend (last load wins).
std::string load_solver_plugin(const std::string& spec);

/// Loads every colon-separated spec in $QFTO_SOLVER_PLUGINS (same `spec`
/// grammar). Returns the registry keys loaded; empty when the variable is
/// unset or empty. Throws on the first failing spec.
std::vector<std::string> load_solver_plugins_from_env();

/// One row per registered backend (built-ins included), sorted by name.
std::vector<BackendProvenance> backend_provenance();

/// SolverInterface adapter over one IPASIR library. Instances are minted by
/// the registered factory; constructing one directly is only useful in
/// tests that exercise the bridge against a hand-resolved table.
class IpasirSolver final : public SolverInterface {
 public:
  /// `api` must be fully resolved (set_learn may be null). Throws
  /// std::runtime_error when ipasir_init fails.
  IpasirSolver(std::string name, const IpasirApi& api);
  ~IpasirSolver() override;

  IpasirSolver(const IpasirSolver&) = delete;
  IpasirSolver& operator=(const IpasirSolver&) = delete;

  std::string name() const override { return name_; }

  std::int32_t new_var() override;
  std::int32_t num_vars() const override { return num_vars_; }

  void add_clause(std::vector<Lit> lits) override;

  Result solve(const std::vector<Lit>& assumptions,
               double budget_seconds = 0.0,
               const std::atomic<bool>* cancel = nullptr) override;

  bool value(std::int32_t var) const override;

  SolverStats stats() const override;
  void dump_dimacs(std::ostream& out,
                   const std::vector<Lit>& extra_units = {}) const override;
  using SolverInterface::dump_dimacs;

 private:
  std::string name_;
  IpasirApi api_;
  void* solver_ = nullptr;
  std::int32_t num_vars_ = 0;
  bool root_unsat_ = false;  // an empty clause was added
  std::vector<std::vector<Lit>> clauses_;  // originals, for dump_dimacs
  SolverStats stats_;
};

}  // namespace qfto::sat
