#include "sat/solver.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>

#include "common/fault.hpp"
#include "common/types.hpp"

namespace qfto::sat {

const std::vector<Lit> Solver::kNoAssumptions;

namespace {

constexpr double kVarDecay = 0.95;
constexpr float kClauseDecay = 0.999f;
/// Header bit reduce_learnts() uses to mark reasons, then doomed clauses.
constexpr std::int32_t kMark = 2;

}  // namespace

std::int32_t Solver::new_var() {
  const std::int32_t v = num_vars();
  lit_value_.push_back(kUndef);
  lit_value_.push_back(kUndef);
  vardata_.emplace_back();
  phase_.push_back(0);
  activity_.push_back(0.0);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_pos_.push_back(-1);
  heap_insert(v);
  return v;
}

// ------------------------------------------------------------ VSIDS heap --

void Solver::heap_insert(std::int32_t v) {
  if (heap_pos_[v] >= 0) return;
  heap_pos_[v] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_pos_[v]);
}

void Solver::heap_sift_up(std::int32_t pos) {
  const std::int32_t v = heap_[pos];
  while (pos > 0) {
    const std::int32_t parent = (pos - 1) >> 1;
    if (!heap_before(v, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = pos;
    pos = parent;
  }
  heap_[pos] = v;
  heap_pos_[v] = pos;
}

void Solver::heap_sift_down(std::int32_t pos) {
  const std::int32_t v = heap_[pos];
  const auto size = static_cast<std::int32_t>(heap_.size());
  while (true) {
    std::int32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && heap_before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!heap_before(heap_[child], v)) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = pos;
    pos = child;
  }
  heap_[pos] = v;
  heap_pos_[v] = pos;
}

std::int32_t Solver::heap_pop() {
  const std::int32_t top = heap_.front();
  heap_pos_[top] = -1;
  const std::int32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[last] = 0;
    heap_sift_down(0);
  }
  return top;
}

// --------------------------------------------------------- clause arena --

float Solver::clause_activity(CRef c) const {
  float a = 0.0f;
  std::memcpy(&a, &arena_[c + 1].code, sizeof a);
  return a;
}

void Solver::set_clause_activity(CRef c, float a) {
  std::memcpy(&arena_[c + 1].code, &a, sizeof a);
}

Solver::CRef Solver::alloc_clause(const Lit* lits, std::int32_t size,
                                  bool learnt) {
  const auto c = static_cast<CRef>(arena_.size());
  require(arena_.size() + kHeaderWords + static_cast<std::size_t>(size) <
              (std::size_t{1} << 31),
          "cdcl: clause arena exceeds 2^31 words");
  arena_.push_back(Lit{(size << 2) | (learnt ? 1 : 0)});
  arena_.push_back(Lit{0});  // activity 0.0f: all bits zero
  arena_.insert(arena_.end(), lits, lits + size);
  ++(learnt ? num_learnts_ : num_original_);
  return c;
}

void Solver::attach(CRef c) {
  const Lit* lits = clause_lits(c);
  const bool binary = clause_size(c) == 2;
  const auto cref = static_cast<std::uint32_t>(c);
  watches_[lits[0].code].push_back({cref, binary, lits[1]});
  watches_[lits[1].code].push_back({cref, binary, lits[0]});
}

template <class Keep>
void Solver::rewrite_database(Keep&& keep) {
  // Copies every clause `keep` accepts into a fresh arena, leaving each
  // survivor's new offset in its old activity word (kNoReason for dropped
  // clauses) so reasons can follow, then rebuilds every watch list. The
  // watched literals stay in slots 0 and 1, so the two-watch invariant
  // survives at any decision level.
  std::vector<Lit> fresh;
  fresh.reserve(arena_.size());
  num_original_ = 0;
  num_learnts_ = 0;
  for (CRef c = 0; c < static_cast<CRef>(arena_.size());) {
    std::int32_t size = clause_size(c);
    const CRef next = c + kHeaderWords + size;
    if (keep(c, size)) {
      const auto to = static_cast<CRef>(fresh.size());
      const bool learnt = clause_learnt(c);
      fresh.push_back(Lit{(size << 2) | (learnt ? 1 : 0)});
      fresh.push_back(arena_[c + 1]);
      fresh.insert(fresh.end(), clause_lits(c), clause_lits(c) + size);
      ++(learnt ? num_learnts_ : num_original_);
      arena_[c + 1] = Lit{to};
    } else {
      arena_[c + 1] = Lit{kNoReason};
    }
    c = next;
  }
  for (const Lit l : trail_) {
    VarData& d = vardata_[l.var()];
    if (d.reason != kNoReason) d.reason = arena_[d.reason + 1].code;
  }
  arena_.swap(fresh);
  for (auto& ws : watches_) ws.clear();
  for (CRef c = 0; c < static_cast<CRef>(arena_.size());
       c += kHeaderWords + clause_size(c)) {
    attach(c);
  }
}

// ---------------------------------------------------------------- search --

void Solver::add_clause(std::vector<Lit> lits) {
  if (unsat_) return;
  // Incremental use adds clauses between solve() calls; the level-0
  // simplification and watch initialization below are only sound at the root,
  // so drop any leftover search state (this invalidates a previous model).
  if (!trail_lim_.empty()) backtrack(0);
  // Normalize: drop duplicate literals; detect tautologies.
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code < b.code; });
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
    if (lits[i].var() == lits[i + 1].var()) return;  // x ∨ ¬x: tautology
  }
  // Remove literals already false at level 0; satisfied clauses are dropped.
  // At the root every assigned variable is a level-0 fact.
  std::size_t kept = 0;
  for (const Lit l : lits) {
    require(l.var() >= 0 && l.var() < num_vars(), "add_clause: unknown var");
    const std::int8_t v = lit_value(l);
    if (v == kTrue) return;
    if (v == kUndef) lits[kept++] = l;
  }
  lits.resize(kept);
  if (lits.empty()) {
    unsat_ = true;
    return;
  }
  if (lits.size() == 1) {
    enqueue(lits[0], kNoReason);
    if (propagate() != kNoReason) unsat_ = true;
    return;
  }
  attach(alloc_clause(lits.data(), static_cast<std::int32_t>(lits.size()),
                      false));
}

void Solver::enqueue(Lit l, CRef reason) {
  lit_value_[l.code] = kTrue;
  lit_value_[l.code ^ 1] = kFalse;
  vardata_[l.var()] = {reason, static_cast<std::int32_t>(trail_lim_.size())};
  trail_.push_back(l);
}

Solver::CRef Solver::propagate() {
  CRef confl = kNoReason;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++propagations_;
    // Clauses watching ~p must find a new watch or propagate/conflict.
    const Lit false_lit = ~p;
    std::vector<Watch>& ws = watches_[false_lit.code];
    Watch* i = ws.data();
    Watch* j = i;
    Watch* const end = i + ws.size();
    while (i != end) {
      const Lit blocker = i->blocker;
      const std::int8_t blocker_value = lit_value(blocker);
      if (blocker_value == kTrue) {
        *j++ = *i++;
        continue;
      }
      const auto c = static_cast<CRef>(i->cref);
      if (i->binary) {
        // The blocker is the other literal: unit or conflict, decided
        // without reading the clause.
        *j++ = *i++;
        if (blocker_value == kUndef) {
          enqueue(blocker, c);
          continue;
        }
        confl = c;
      } else {
        ++i;
        // Ensure the falsified literal is at slot 1.
        Lit* lits = clause_lits(c);
        if (lits[0] == false_lit) {
          lits[0] = lits[1];
          lits[1] = false_lit;
        }
        const Lit first = lits[0];
        const Watch w{static_cast<std::uint32_t>(c), false, first};
        if (first.code != blocker.code && lit_value(first) == kTrue) {
          *j++ = w;
          continue;
        }
        const std::int32_t size = clause_size(c);
        bool moved = false;
        for (std::int32_t k = 2; k < size; ++k) {
          if (lit_value(lits[k]) != kFalse) {
            lits[1] = lits[k];
            lits[k] = false_lit;
            watches_[lits[1].code].push_back(w);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        *j++ = w;
        if (lit_value(first) == kUndef) {
          enqueue(first, c);
          continue;
        }
        confl = c;
      }
      // Conflict: keep the remaining watches and report.
      qhead_ = trail_.size();
      while (i != end) *j++ = *i++;
    }
    ws.resize(static_cast<std::size_t>(j - ws.data()));
    if (confl != kNoReason) break;
  }
  return confl;
}

void Solver::bump_var(std::int32_t v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] >= 0) heap_sift_up(heap_pos_[v]);
}

void Solver::bump_clause(CRef c) {
  const float a = clause_activity(c) + clause_inc_;
  set_clause_activity(c, a);
  if (a > 1e20f) {
    for (CRef d = 0; d < static_cast<CRef>(arena_.size());
         d += kHeaderWords + clause_size(d)) {
      if (clause_learnt(d)) set_clause_activity(d, clause_activity(d) * 1e-20f);
    }
    clause_inc_ *= 1e-20f;
  }
}

void Solver::analyze(CRef confl, std::int32_t& bt_level) {
  learnt_.clear();
  learnt_.push_back(Lit{-1});  // slot for the asserting literal
  std::int32_t counter = 0;
  Lit p{-1};
  std::size_t index = trail_.size();
  const auto current_level = static_cast<std::int32_t>(trail_lim_.size());

  CRef c = confl;
  do {
    if (clause_learnt(c)) bump_clause(c);
    const Lit* lits = clause_lits(c);
    const std::int32_t size = clause_size(c);
    for (std::int32_t k = 0; k < size; ++k) {
      const Lit q = lits[k];
      if (q == p) continue;
      const std::int32_t v = q.var();
      if (!seen_[v] && vardata_[v].level > 0) {
        seen_[v] = 1;
        bump_var(v);
        if (vardata_[v].level >= current_level) {
          ++counter;
        } else {
          learnt_.push_back(q);
        }
      }
    }
    // Walk back the trail to the next marked literal.
    while (!seen_[trail_[index - 1].var()]) --index;
    p = trail_[--index];
    seen_[p.var()] = 0;
    c = vardata_[p.var()].reason;
    --counter;
  } while (counter > 0);
  learnt_[0] = ~p;

  // Recursive minimization (MiniSat's "deep" mode): drop every literal
  // implied by the others through reason clauses. Abstract levels prune the
  // walk: a literal whose level holds no literal of the clause cannot be
  // implied by it. Decisions and assumptions (no reason) always stay.
  analyze_toclear_.assign(learnt_.begin(), learnt_.end());
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt_.size(); ++i) {
    abstract_levels |= abstract_level(learnt_[i].var());
  }
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt_.size(); ++i) {
    if (vardata_[learnt_[i].var()].reason == kNoReason ||
        !lit_redundant(learnt_[i], abstract_levels)) {
      learnt_[kept++] = learnt_[i];
    }
  }
  learnt_.resize(kept);
  for (const Lit l : analyze_toclear_) seen_[l.var()] = 0;

  if (learnt_.size() == 1) {
    bt_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt_.size(); ++i) {
      if (vardata_[learnt_[i].var()].level >
          vardata_[learnt_[max_i].var()].level) {
        max_i = i;
      }
    }
    std::swap(learnt_[1], learnt_[max_i]);
    bt_level = vardata_[learnt_[1].var()].level;
  }
}

bool Solver::lit_redundant(Lit p, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(p);
  const std::size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    const std::int32_t u = analyze_stack_.back().var();
    analyze_stack_.pop_back();
    const CRef c = vardata_[u].reason;
    const Lit* lits = clause_lits(c);
    const std::int32_t size = clause_size(c);
    for (std::int32_t k = 0; k < size; ++k) {
      const Lit q = lits[k];
      const std::int32_t v = q.var();
      if (v == u || seen_[v] || vardata_[v].level == 0) continue;
      if (vardata_[v].reason != kNoReason &&
          (abstract_level(v) & abstract_levels) != 0) {
        seen_[v] = 1;
        analyze_stack_.push_back(q);
        analyze_toclear_.push_back(q);
        continue;
      }
      for (std::size_t i = top; i < analyze_toclear_.size(); ++i) {
        seen_[analyze_toclear_[i].var()] = 0;
      }
      analyze_toclear_.resize(top);
      return false;
    }
  }
  return true;
}

void Solver::backtrack(std::int32_t target_level) {
  if (static_cast<std::int32_t>(trail_lim_.size()) > target_level) {
    const auto lim = static_cast<std::size_t>(trail_lim_[target_level]);
    while (trail_.size() > lim) {
      const Lit l = trail_.back();
      trail_.pop_back();
      const std::int32_t v = l.var();
      phase_[v] = l.sign() ? 0 : 1;
      lit_value_[l.code] = kUndef;
      lit_value_[l.code ^ 1] = kUndef;
      vardata_[v] = VarData{};
      heap_insert(v);
    }
    trail_lim_.resize(target_level);
    // Only here, as in MiniSat's cancelUntil: a no-op backtrack must not
    // mark enqueued-but-unpropagated root facts (a learnt unit) propagated.
    qhead_ = trail_.size();
  }
}

Lit Solver::pick_branch() {
  while (!heap_.empty()) {
    const std::int32_t v = heap_pop();
    if (lit_value_[2 * v] == kUndef) {
      return phase_[v] ? Lit::pos(v) : Lit::neg(v);
    }
  }
  return Lit{-1};
}

void Solver::reduce_learnts() {
  // Rank the learnts that are neither binary nor the reason of a current
  // assignment by activity and delete the lower half.
  for (const Lit l : trail_) {
    const VarData& d = vardata_[l.var()];
    if (d.level > 0 && d.reason != kNoReason) arena_[d.reason].code |= kMark;
  }
  std::vector<CRef> candidates;
  for (CRef c = 0; c < static_cast<CRef>(arena_.size());
       c += kHeaderWords + clause_size(c)) {
    if (clause_learnt(c) && clause_size(c) > 2 &&
        (arena_[c].code & kMark) == 0) {
      candidates.push_back(c);
    }
    arena_[c].code &= ~kMark;
  }
  std::sort(candidates.begin(), candidates.end(), [this](CRef a, CRef b) {
    const float fa = clause_activity(a), fb = clause_activity(b);
    return fa < fb || (fa == fb && a < b);
  });
  candidates.resize(candidates.size() / 2);
  for (const CRef c : candidates) arena_[c].code |= kMark;
  rewrite_database([this](CRef c, std::int32_t&) {
    return (arena_[c].code & kMark) == 0;
  });
}

void Solver::simplify_at_root() {
  // Root-level database simplification (MiniSat's simplifyDB): with the
  // trail at level 0 and propagation at fixpoint, drop every clause
  // satisfied by a root fact — retired SATMAP horizons turn whole clause
  // families into dead weight — and strip false literals from the rest.
  // Sound: removed clauses are implied by the remaining formula plus the
  // root facts, which dump_dimacs emits as units.
  if (!trail_lim_.empty() || simplified_at_ == trail_.size()) return;
  simplified_at_ = trail_.size();
  // Root-assigned vars may hold reasons into the old database; they are
  // never resolved (analyze skips level-0 literals), so drop them rather
  // than remap.
  for (VarData& d : vardata_) d.reason = kNoReason;
  rewrite_database([this](CRef c, std::int32_t& size) {
    Lit* lits = clause_lits(c);
    std::int32_t w = 0;
    for (std::int32_t k = 0; k < size; ++k) {
      const std::int8_t v = lit_value(lits[k]);
      if (v == kTrue) return false;
      if (v == kUndef) lits[w++] = lits[k];
    }
    // Propagation fixpoint at the root leaves no unit or empty clause here:
    // a would-be unit has its remaining literal already true (satisfied).
    // A survivor shorter than two literals would corrupt the watch scheme,
    // so a broken fixpoint fails loudly instead.
    require(w >= 2, "cdcl: root simplification met an unpropagated clause");
    size = w;
    return true;
  });
}

std::int64_t Solver::luby(std::int64_t i) {
  // Luby sequence: 1 1 2 1 1 2 4 ...
  std::int64_t k = 1;
  while ((1ll << (k + 1)) <= i + 1) ++k;
  while ((1ll << k) - 1 != i + 1) {
    i = i - (1ll << k) + 1;
    k = 1;
    while ((1ll << (k + 1)) <= i + 1) ++k;
  }
  return 1ll << (k - 1);
}

Result Solver::solve(const std::vector<Lit>& assumptions,
                     double budget_seconds, const std::atomic<bool>* cancel) {
  ++solve_calls_;
  if (unsat_) return Result::kUnsat;
  Deadline deadline(budget_seconds);
  const auto out_of_time = [&]() {
    return (cancel != nullptr && cancel->load(std::memory_order_relaxed)) ||
           (terminate_ && terminate_()) || deadline.expired();
  };
  if (out_of_time()) return Result::kTimeout;
  if (QFTO_FAULT_POINT("sat.budget.exhaust")) return Result::kTimeout;
  for (const Lit a : assumptions) {
    require(a.var() >= 0 && a.var() < num_vars(), "solve: unknown assumption");
  }
  // Incremental entry: drop the previous call's search state (keeping all
  // root-level facts and learnt clauses) and re-run root propagation, which
  // may now reach a contradiction from clauses added since.
  backtrack(0);
  if (propagate() != kNoReason) {
    unsat_ = true;
    return Result::kUnsat;
  }
  simplify_at_root();

  std::int64_t restart_idx = 0;
  std::int64_t conflicts_until_restart = 32 * luby(restart_idx);

  while (true) {
    const CRef confl = propagate();
    if (confl != kNoReason) {
      ++conflicts_;
      if (trail_lim_.empty()) {
        unsat_ = true;
        return Result::kUnsat;
      }
      std::int32_t bt = 0;
      analyze(confl, bt);
      // Learnt clauses resolve only clause-database reasons, so they are
      // implied by the formula alone — safe to retain across calls with
      // different assumptions. The backtrack may land inside the assumption
      // prefix; the decision step below re-establishes assumptions in order.
      backtrack(bt);
      if (learnt_.size() == 1) {
        enqueue(learnt_[0], kNoReason);
      } else {
        const CRef c = alloc_clause(
            learnt_.data(), static_cast<std::int32_t>(learnt_.size()), true);
        attach(c);
        bump_clause(c);
        enqueue(learnt_[0], c);
      }
      var_inc_ *= 1.0 / kVarDecay;
      clause_inc_ *= 1.0f / kClauseDecay;
      if (--conflicts_until_restart <= 0) {
        backtrack(0);
        ++restarts_;
        conflicts_until_restart = 32 * luby(++restart_idx);
      }
      if ((conflicts_ & 255) == 0 && out_of_time()) {
        return Result::kTimeout;
      }
    } else {
      if (conflicts_ >= next_reduce_) {
        next_reduce_ = conflicts_ + kReduceInterval;
        reduce_learnts();
      }
      // Pin every assumption as its own decision level before any free
      // decision (MiniSat-style): already-true assumptions get an empty
      // level so level index keeps tracking assumption index; an assumption
      // that propagated false is UNSAT *under these assumptions* — the
      // instance itself stays usable.
      Lit next{-1};
      while (static_cast<std::size_t>(trail_lim_.size()) <
             assumptions.size()) {
        const Lit a = assumptions[trail_lim_.size()];
        const std::int8_t v = lit_value(a);
        if (v == kTrue) {
          trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
          continue;
        }
        if (v == kFalse) {
          backtrack(0);
          return Result::kUnsat;
        }
        next = a;
        break;
      }
      if (next.code == -1) next = pick_branch();
      if (next.code == -1) return Result::kSat;
      ++decisions_;
      trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
      enqueue(next, kNoReason);
      if ((decisions_ & 1023) == 0 && out_of_time()) return Result::kTimeout;
    }
  }
}

bool Solver::value(std::int32_t var) const {
  return lit_value_[2 * var] == kTrue;
}

SolverStats Solver::stats() const {
  SolverStats s;
  s.conflicts = conflicts_;
  s.decisions = decisions_;
  s.propagations = propagations_;
  s.restarts = restarts_;
  s.solve_calls = solve_calls_;
  s.clauses = num_clauses();
  s.vars = num_vars();
  return s;
}

void Solver::dump_dimacs(std::ostream& out,
                         const std::vector<Lit>& extra_units) const {
  // Root-level facts: original unit clauses land on the trail, not in the
  // clause database, and level-0 propagations are implied, so dumping the
  // whole root prefix keeps the instance equivalent.
  const std::size_t root_end =
      trail_lim_.empty() ? trail_.size()
                         : static_cast<std::size_t>(trail_lim_[0]);
  std::vector<std::vector<Lit>> clauses;
  clauses.reserve(static_cast<std::size_t>(num_original_));
  for (CRef c = 0; c < static_cast<CRef>(arena_.size());
       c += kHeaderWords + clause_size(c)) {
    if (!clause_learnt(c)) {
      clauses.emplace_back(clause_lits(c), clause_lits(c) + clause_size(c));
    }
  }
  std::vector<const std::vector<Lit>*> original;
  original.reserve(clauses.size());
  for (const auto& c : clauses) original.push_back(&c);
  write_dimacs(out, name(), unsat_, num_vars(), trail_.data(), root_end,
               original, extra_units);
}

}  // namespace qfto::sat
