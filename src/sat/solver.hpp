// Self-contained CDCL SAT solver — the "cdcl" backend behind SolverInterface
// and the substrate under the SATMAP baseline (Molavi et al., MICRO'22, use a
// MaxSAT engine; we reproduce the behaviour with our own solver so the
// repository has no external dependencies).
// Features, following MiniSat 2.2 practice:
//  - clauses in one flat arena, watched by two literals; every watch carries
//    a blocker literal, so a clause whose blocker is true is skipped without
//    touching clause memory, and a binary clause is propagated from its
//    watch alone;
//  - first-UIP clause learning with recursive minimization (abstract
//    levels), on reusable buffers, so a conflict allocates nothing;
//  - EVSIDS variable activity in a live binary max-heap: variables re-enter
//    it when unassigned and move up when bumped;
//  - learnt-clause activity bumped on every clause analysis resolves on;
//    every kReduceInterval conflicts the lower-activity half of the learnts
//    that are neither binary nor the reason of a current assignment is
//    deleted;
//  - Luby restarts, phase saving, root-level database simplification, and a
//    wall-clock budget so callers can reproduce the paper's "TLE after 2h"
//    outcomes at friendlier time scales;
//  - MiniSat-style solve-under-assumptions: assumption literals are pinned
//    as the first decision levels of every restart, learnt clauses are
//    retained across calls (they are implied by the clause database alone,
//    never by a call's assumptions), and kUnsat under assumptions leaves the
//    instance reusable.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/timer.hpp"
#include "sat/solver_interface.hpp"

namespace qfto::sat {

class Solver final : public SolverInterface {
 public:
  Solver() = default;

  std::string name() const override { return "cdcl"; }

  /// Creates a fresh variable, returns its index.
  std::int32_t new_var() override;
  std::int32_t num_vars() const override {
    return static_cast<std::int32_t>(phase_.size());
  }

  /// Adds a clause (empty clause makes the instance trivially UNSAT).
  /// Backtracks to the root level first, so the model of a previous kSat
  /// call is invalidated — extract models before growing the instance.
  void add_clause(std::vector<Lit> lits) override;

  /// Solves under `assumptions` with an optional wall-clock budget (<= 0:
  /// unlimited). See SolverInterface::solve for the cancel contract.
  Result solve(const std::vector<Lit>& assumptions,
               double budget_seconds = 0.0,
               const std::atomic<bool>* cancel = nullptr) override;

  /// Assumption-free legacy entry point (pre-interface callers).
  Result solve(double budget_seconds = 0.0,
               const std::atomic<bool>* cancel = nullptr) {
    return solve(kNoAssumptions, budget_seconds, cancel);
  }

  /// Model access after kSat.
  bool value(std::int32_t var) const override;

  SolverStats stats() const override;
  void dump_dimacs(std::ostream& out,
                   const std::vector<Lit>& extra_units = {}) const override;
  using SolverInterface::dump_dimacs;

  /// IPASIR-style cooperative interrupt (the hook the in-tree IPASIR stub
  /// rides): when set, polled at the same cadence as the cancel flag, and a
  /// true return aborts the running solve() with kTimeout. Replaces any
  /// previous hook; pass {} to clear. Not thread-safe against a running
  /// solve — install it between calls, like IPASIR prescribes.
  void set_terminate(std::function<bool()> hook) {
    terminate_ = std::move(hook);
  }

  std::int64_t num_conflicts() const { return conflicts_; }
  std::int64_t num_decisions() const { return decisions_; }
  std::int64_t num_clauses() const { return num_original_ + num_learnts_; }

 private:
  /// Offset of a clause in arena_, which stores each clause as a header
  /// word (size << 2 | mark << 1 | learnt), its activity (float bits) and
  /// its literals, all as Lit codes. The first two literals are the
  /// watched ones.
  using CRef = std::int32_t;
  static constexpr CRef kNoReason = -1;
  static constexpr std::int32_t kHeaderWords = 2;
  /// Conflicts between two learnt-clause reductions.
  static constexpr std::int64_t kReduceInterval = 8000;

  /// One entry of a literal's watch list. `blocker` is some other literal of
  /// the clause (for a binary clause, the other literal): when it is true
  /// the clause is satisfied and its memory is never read.
  struct Watch {
    std::uint32_t cref : 31;
    std::uint32_t binary : 1;
    Lit blocker;
  };

  struct VarData {
    CRef reason = kNoReason;
    std::int32_t level = -1;
  };

  enum : std::int8_t { kUndef = 0, kTrue = 1, kFalse = -1 };

  static const std::vector<Lit> kNoAssumptions;

  std::int8_t lit_value(Lit l) const { return lit_value_[l.code]; }

  std::int32_t clause_size(CRef c) const { return arena_[c].code >> 2; }
  bool clause_learnt(CRef c) const { return (arena_[c].code & 1) != 0; }
  Lit* clause_lits(CRef c) { return &arena_[c + kHeaderWords]; }
  const Lit* clause_lits(CRef c) const { return &arena_[c + kHeaderWords]; }
  float clause_activity(CRef c) const;
  void set_clause_activity(CRef c, float a);

  CRef alloc_clause(const Lit* lits, std::int32_t size, bool learnt);
  void attach(CRef c);
  void enqueue(Lit l, CRef reason);
  CRef propagate();  // returns the conflicting clause or kNoReason
  void analyze(CRef confl, std::int32_t& bt_level);
  bool lit_redundant(Lit p, std::uint32_t abstract_levels);
  std::uint32_t abstract_level(std::int32_t v) const {
    return 1u << (static_cast<std::uint32_t>(vardata_[v].level) & 31u);
  }
  void backtrack(std::int32_t level);
  Lit pick_branch();
  void bump_var(std::int32_t v);
  void bump_clause(CRef c);
  void reduce_learnts();
  void simplify_at_root();
  template <class Keep>
  void rewrite_database(Keep&& keep);
  static std::int64_t luby(std::int64_t i);

  // VSIDS order: a binary max-heap of variables keyed on activity_, ties
  // broken toward the lower index. heap_pos_[v] is v's slot, -1 if absent.
  bool heap_before(std::int32_t a, std::int32_t b) const {
    return activity_[a] > activity_[b] ||
           (activity_[a] == activity_[b] && a < b);
  }
  void heap_insert(std::int32_t v);
  void heap_sift_up(std::int32_t pos);
  void heap_sift_down(std::int32_t pos);
  std::int32_t heap_pop();

  std::vector<Lit> arena_;
  std::int64_t num_original_ = 0;
  std::int64_t num_learnts_ = 0;
  std::vector<std::vector<Watch>> watches_;  // per literal code
  std::vector<std::int8_t> lit_value_;       // per literal code
  std::vector<VarData> vardata_;
  std::vector<std::uint8_t> phase_;  // saved phases
  std::vector<double> activity_;
  std::vector<std::int32_t> heap_;
  std::vector<std::int32_t> heap_pos_;
  std::vector<Lit> trail_;
  std::vector<std::int32_t> trail_lim_;
  std::size_t qhead_ = 0;
  double var_inc_ = 1.0;
  float clause_inc_ = 1.0f;
  bool unsat_ = false;
  std::int64_t conflicts_ = 0;
  std::int64_t decisions_ = 0;
  std::int64_t propagations_ = 0;
  std::int64_t restarts_ = 0;
  std::int64_t solve_calls_ = 0;
  std::int64_t next_reduce_ = kReduceInterval;  // conflict count
  std::function<bool()> terminate_;

  // analyze() scratch, kept across conflicts so a conflict allocates
  // nothing: seen_ is all-zero between calls (only marked entries are
  // cleared), learnt_ holds the clause being built.
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> learnt_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_toclear_;

  /// Root-trail size at the last simplify_at_root(), so incremental calls
  /// only pay for re-simplification when new root facts arrived.
  std::size_t simplified_at_ = 0;
};

}  // namespace qfto::sat
