#include "support/dpll_solver.hpp"

#include <algorithm>
#include <memory>
#include <ostream>

#include "common/timer.hpp"
#include "common/types.hpp"

namespace qfto::sat {

std::int32_t DpllSolver::new_var() {
  const std::int32_t v = num_vars();
  assign_.push_back(kUndef);
  watches_.emplace_back();
  watches_.emplace_back();
  return v;
}

void DpllSolver::enqueue(Lit l) {
  assign_[l.var()] = l.sign() ? kFalse : kTrue;
  trail_.push_back(l);
}

void DpllSolver::undo_to(std::int32_t trail_start) {
  while (static_cast<std::int32_t>(trail_.size()) > trail_start) {
    assign_[trail_.back().var()] = kUndef;
    trail_.pop_back();
  }
  qhead_ = trail_.size();
}

void DpllSolver::add_clause(std::vector<Lit> lits) {
  if (unsat_) return;
  // Root-only simplification: drop any leftover search state first (this
  // invalidates a previous model, per the interface contract).
  if (!frames_.empty()) {
    undo_to(frames_.front().trail_start);
    frames_.clear();
  }
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code < b.code; });
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
    if (lits[i].var() == lits[i + 1].var()) return;  // x ∨ ¬x: tautology
  }
  std::vector<Lit> kept;
  for (Lit l : lits) {
    require(l.var() >= 0 && l.var() < num_vars(), "add_clause: unknown var");
    const std::int8_t v = lit_value(l);
    if (v == kTrue) return;  // satisfied at the root
    if (v == kFalse) continue;
    kept.push_back(l);
  }
  if (kept.empty()) {
    unsat_ = true;
    return;
  }
  if (kept.size() == 1) {
    enqueue(kept[0]);
    if (!propagate()) unsat_ = true;
    return;
  }
  const std::int32_t ci = static_cast<std::int32_t>(clauses_.size());
  clauses_.push_back(std::move(kept));
  watches_[clauses_[ci][0].code].push_back(ci);
  watches_[clauses_[ci][1].code].push_back(ci);
}

bool DpllSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++propagations_;
    auto& watch_list = watches_[(~p).code];
    std::size_t keep = 0;
    for (std::size_t wi = 0; wi < watch_list.size(); ++wi) {
      const std::int32_t ci = watch_list[wi];
      auto& lits = clauses_[ci];
      if (lits[0] == ~p) std::swap(lits[0], lits[1]);
      if (lit_value(lits[0]) == kTrue) {
        watch_list[keep++] = ci;
        continue;
      }
      bool moved = false;
      for (std::size_t k = 2; k < lits.size(); ++k) {
        if (lit_value(lits[k]) != kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[lits[1].code].push_back(ci);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      watch_list[keep++] = ci;
      if (lit_value(lits[0]) == kFalse) {
        for (std::size_t rest = wi + 1; rest < watch_list.size(); ++rest) {
          watch_list[keep++] = watch_list[rest];
        }
        watch_list.resize(keep);
        qhead_ = trail_.size();
        return false;
      }
      enqueue(lits[0]);
    }
    watch_list.resize(keep);
  }
  return true;
}

Result DpllSolver::solve(const std::vector<Lit>& assumptions,
                         double budget_seconds,
                         const std::atomic<bool>* cancel) {
  ++solve_calls_;
  if (unsat_) return Result::kUnsat;
  Deadline deadline(budget_seconds);
  const auto out_of_time = [&]() {
    return (cancel != nullptr && cancel->load(std::memory_order_relaxed)) ||
           deadline.expired();
  };
  if (out_of_time()) return Result::kTimeout;
  for (const Lit a : assumptions) {
    require(a.var() >= 0 && a.var() < num_vars(), "solve: unknown assumption");
  }
  // Incremental entry: back to the root, re-run propagation over the whole
  // trail (clauses added since the last call may tighten it).
  if (!frames_.empty()) {
    undo_to(frames_.front().trail_start);
    frames_.clear();
  }
  qhead_ = 0;
  if (!propagate()) {
    unsat_ = true;
    return Result::kUnsat;
  }

  // Assumptions are pinned, non-flippable prefix decisions; exhausting the
  // search below them (or propagating one false) is UNSAT *under these
  // assumptions* — the instance itself stays usable.
  const std::int32_t root = static_cast<std::int32_t>(trail_.size());
  const auto give_up_assumptions = [&]() {
    undo_to(root);
    frames_.clear();
    return Result::kUnsat;
  };
  for (const Lit a : assumptions) {
    const std::int8_t v = lit_value(a);
    Frame frame;
    frame.decision = a;
    frame.trail_start = static_cast<std::int32_t>(trail_.size());
    frame.flipped = true;
    frame.assumption = true;
    frames_.push_back(frame);
    if (v == kTrue) continue;
    if (v == kFalse) return give_up_assumptions();
    enqueue(a);
    if (!propagate()) {
      ++conflicts_;
      return give_up_assumptions();
    }
  }

  for (;;) {
    // Fixed branching order: lowest unassigned variable, positive first.
    std::int32_t branch = -1;
    for (std::int32_t v = 0; v < num_vars(); ++v) {
      if (assign_[v] == kUndef) {
        branch = v;
        break;
      }
    }
    if (branch == -1) return Result::kSat;
    Frame frame;
    frame.decision = Lit::pos(branch);
    frame.trail_start = static_cast<std::int32_t>(trail_.size());
    frames_.push_back(frame);
    enqueue(frame.decision);
    if ((++decisions_ & 255) == 0 && out_of_time()) return Result::kTimeout;

    while (!propagate()) {
      if ((++conflicts_ & 255) == 0 && out_of_time()) return Result::kTimeout;
      // Chronological backtracking: flip the deepest untried branch.
      for (;;) {
        if (frames_.empty()) {
          unsat_ = true;
          return Result::kUnsat;
        }
        Frame& f = frames_.back();
        if (f.assumption) return give_up_assumptions();
        if (f.flipped) {
          undo_to(f.trail_start);
          frames_.pop_back();
          continue;
        }
        undo_to(f.trail_start);
        f.flipped = true;
        f.decision = ~f.decision;
        enqueue(f.decision);
        break;
      }
    }
  }
}

bool DpllSolver::value(std::int32_t var) const {
  return assign_[var] == kTrue;
}

SolverStats DpllSolver::stats() const {
  SolverStats s;
  s.conflicts = conflicts_;
  s.decisions = decisions_;
  s.propagations = propagations_;
  s.restarts = 0;
  s.solve_calls = solve_calls_;
  s.clauses = static_cast<std::int64_t>(clauses_.size());
  s.vars = num_vars();
  return s;
}

void DpllSolver::dump_dimacs(std::ostream& out,
                             const std::vector<Lit>& extra_units) const {
  const std::size_t root_end =
      frames_.empty() ? trail_.size()
                      : static_cast<std::size_t>(frames_.front().trail_start);
  std::vector<const std::vector<Lit>*> original;
  original.reserve(clauses_.size());
  for (const auto& lits : clauses_) original.push_back(&lits);
  write_dimacs(out, name(), unsat_, num_vars(), trail_.data(), root_end,
               original, extra_units);
}

void register_dpll_backend() {
  register_solver_backend("dpll", [] {
    return std::unique_ptr<SolverInterface>(std::make_unique<DpllSolver>());
  });
}

}  // namespace qfto::sat
