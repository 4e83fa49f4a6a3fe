// Test-only reference "dpll" backend: iterative DPLL with two-watched-literal
// unit propagation, chronological backtracking and a fixed branching order —
// no learning, no restarts, no heuristics. Deliberately simple: its job is
// differential testing of the production "cdcl" backend (same verdicts on
// every instance the conformance suite and small SATMAP probes can reach),
// not performance. Supports the full SolverInterface contract, including
// solve-under-assumptions (assumptions are non-flippable prefix decisions)
// and incremental clause addition between calls.
//
// The library does not register it: a test calls register_dpll_backend()
// before it names "dpll" (an explicit call, because the linker drops
// unreferenced archive members, static initializers included).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sat/solver_interface.hpp"

namespace qfto::sat {

class DpllSolver final : public SolverInterface {
 public:
  DpllSolver() = default;

  std::string name() const override { return "dpll"; }

  std::int32_t new_var() override;
  std::int32_t num_vars() const override {
    return static_cast<std::int32_t>(assign_.size());
  }

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
  enum : std::int8_t { kUndef = 0, kTrue = 1, kFalse = -1 };

  struct Frame {
    Lit decision;
    std::int32_t trail_start = 0;
    bool flipped = false;     // second branch already taken
    bool assumption = false;  // pinned by the caller; never flipped
  };

  std::int8_t lit_value(Lit l) const {
    const std::int8_t v = assign_[l.var()];
    if (v == kUndef) return kUndef;
    return l.sign() ? static_cast<std::int8_t>(-v) : v;
  }

  void enqueue(Lit l);
  bool propagate();  // false on conflict
  void undo_to(std::int32_t trail_start);

  std::vector<std::vector<Lit>> clauses_;
  std::vector<std::vector<std::int32_t>> watches_;  // per literal code
  std::vector<std::int8_t> assign_;
  std::vector<Lit> trail_;
  std::vector<Frame> frames_;
  std::size_t qhead_ = 0;
  bool unsat_ = false;
  std::int64_t conflicts_ = 0;
  std::int64_t decisions_ = 0;
  std::int64_t propagations_ = 0;
  std::int64_t solve_calls_ = 0;
};

/// Registers DpllSolver under "dpll" in the solver backend registry.
/// Idempotent: a second call replaces the factory with an identical one.
void register_dpll_backend();

}  // namespace qfto::sat
