#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "sat/cardinality.hpp"
#include "sat/solver.hpp"

namespace qfto::sat {
namespace {

TEST(Sat, TrivialSat) {
  Solver s;
  const auto a = s.new_var();
  s.add_unit(Lit::pos(a));
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(a));
}

TEST(Sat, TrivialUnsat) {
  Solver s;
  const auto a = s.new_var();
  s.add_unit(Lit::pos(a));
  s.add_unit(Lit::neg(a));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Sat, EmptyClauseUnsat) {
  Solver s;
  s.add_clause({});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Sat, TautologyIgnored) {
  Solver s;
  const auto a = s.new_var();
  s.add_clause({Lit::pos(a), Lit::neg(a)});
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Sat, Implications) {
  Solver s;
  const auto a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_implication(Lit::pos(a), Lit::pos(b));
  s.add_implication(Lit::pos(b), Lit::pos(c));
  s.add_unit(Lit::pos(a));
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(b));
  EXPECT_TRUE(s.value(c));
}

TEST(Sat, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: classic small UNSAT requiring real search.
  Solver s;
  const int pigeons = 4, holes = 3;
  std::vector<std::vector<std::int32_t>> x(pigeons,
                                           std::vector<std::int32_t>(holes));
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> row;
    for (int h = 0; h < holes; ++h) row.push_back(Lit::pos(x[p][h]));
    add_at_least_one(s, row);
  }
  for (int h = 0; h < holes; ++h) {
    std::vector<Lit> col;
    for (int p = 0; p < pigeons; ++p) col.push_back(Lit::pos(x[p][h]));
    add_at_most_one(s, col);
  }
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Sat, GraphColoringSat) {
  // 5-cycle is 3-colorable but not 2-colorable.
  auto build = [](int colors) {
    auto s = std::make_unique<Solver>();
    std::vector<std::vector<std::int32_t>> v(5,
                                             std::vector<std::int32_t>(colors));
    for (auto& row : v) {
      for (auto& var : row) var = s->new_var();
    }
    for (int i = 0; i < 5; ++i) {
      std::vector<Lit> row;
      for (int c = 0; c < colors; ++c) row.push_back(Lit::pos(v[i][c]));
      add_exactly_one(*s, row);
      const int j = (i + 1) % 5;
      for (int c = 0; c < colors; ++c) {
        s->add_binary(Lit::neg(v[i][c]), Lit::neg(v[j][c]));
      }
    }
    return s;
  };
  EXPECT_EQ(build(3)->solve(), Result::kSat);
  EXPECT_EQ(build(2)->solve(), Result::kUnsat);
}

TEST(Sat, RandomThreeSatSmokeBothPolarities) {
  // Random planted-solution 3-SAT instances must come back SAT, and the
  // returned model must satisfy every clause.
  Xoshiro256ss rng(123);
  for (int inst = 0; inst < 10; ++inst) {
    Solver s;
    const int nv = 30;
    std::vector<std::int32_t> vars(nv);
    std::vector<bool> planted(nv);
    for (int i = 0; i < nv; ++i) {
      vars[i] = s.new_var();
      planted[i] = rng.uniform(2) == 1;
    }
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < 120; ++c) {
      std::vector<Lit> cl;
      bool satisfied = false;
      for (int k = 0; k < 3; ++k) {
        const int v = static_cast<int>(rng.uniform(nv));
        const bool neg = rng.uniform(2) == 1;
        cl.push_back(neg ? Lit::neg(vars[v]) : Lit::pos(vars[v]));
        satisfied |= (planted[v] != neg);
      }
      if (!satisfied) {
        // Flip one literal to keep the planted assignment valid.
        cl[0] = cl[0].sign() ? Lit::pos(cl[0].var()) : Lit::neg(cl[0].var());
      }
      clauses.push_back(cl);
      s.add_clause(cl);
    }
    ASSERT_EQ(s.solve(), Result::kSat) << "instance " << inst;
    for (const auto& cl : clauses) {
      bool ok = false;
      for (Lit l : cl) ok |= (s.value(l.var()) != l.sign());
      EXPECT_TRUE(ok);
    }
  }
}

TEST(Sat, TimeoutReported) {
  // A hard pigeonhole instance with an absurdly small budget must time out
  // (or, on a very fast machine, prove UNSAT — both are acceptable; what is
  // not acceptable is SAT).
  Solver s;
  const int pigeons = 9, holes = 8;
  std::vector<std::vector<std::int32_t>> x(pigeons,
                                           std::vector<std::int32_t>(holes));
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> row;
    for (int h = 0; h < holes; ++h) row.push_back(Lit::pos(x[p][h]));
    add_at_least_one(s, row);
  }
  for (int h = 0; h < holes; ++h) {
    std::vector<Lit> col;
    for (int p = 0; p < pigeons; ++p) col.push_back(Lit::pos(x[p][h]));
    add_at_most_one(s, col);
  }
  EXPECT_NE(s.solve(1e-6), Result::kSat);
}

TEST(Sat, AssumptionsPinDecisionsForOneCall) {
  Solver s;
  const auto a = s.new_var(), b = s.new_var();
  s.add_binary(Lit::pos(a), Lit::pos(b));
  ASSERT_EQ(s.solve({Lit::neg(a)}), Result::kSat);
  EXPECT_FALSE(s.value(a));
  EXPECT_TRUE(s.value(b));
  EXPECT_EQ(s.solve({Lit::neg(a), Lit::neg(b)}), Result::kUnsat);
  // Cores-free semantics: the refutation was scoped to the call.
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Sat, LearntClausesAreRetainedAcrossCalls) {
  // Refuting an activation literal forces real conflict analysis; the learnt
  // clauses must survive into the next call (the whole point of driving
  // SATMAP's deepening through one incremental instance).
  Solver s;
  const int pigeons = 4, holes = 3;
  std::vector<std::vector<std::int32_t>> x(pigeons,
                                           std::vector<std::int32_t>(holes));
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  const auto act = s.new_var();
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> row{Lit::neg(act)};
    for (int h = 0; h < holes; ++h) row.push_back(Lit::pos(x[p][h]));
    s.add_clause(row);  // act -> pigeon p is placed
  }
  for (int h = 0; h < holes; ++h) {
    std::vector<Lit> col;
    for (int p = 0; p < pigeons; ++p) col.push_back(Lit::pos(x[p][h]));
    add_at_most_one(s, col);
  }
  const std::int64_t original = s.num_clauses();
  EXPECT_EQ(s.solve({Lit::pos(act)}), Result::kUnsat);
  EXPECT_GT(s.num_conflicts(), 0);
  EXPECT_GE(s.num_clauses(), original) << "learnt clauses must be retained";
  // Without the activation the relaxed instance is SAT in the same solver.
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Sat, StatsCountersAreMonotone) {
  Solver s;
  const auto a = s.new_var(), b = s.new_var();
  s.add_binary(Lit::pos(a), Lit::pos(b));
  ASSERT_EQ(s.solve(), Result::kSat);
  const SolverStats first = s.stats();
  EXPECT_EQ(first.solve_calls, 1);
  ASSERT_EQ(s.solve({Lit::neg(b)}), Result::kSat);
  const SolverStats second = s.stats();
  EXPECT_EQ(second.solve_calls, 2);
  EXPECT_GE(second.decisions, first.decisions);
  EXPECT_GE(second.propagations, first.propagations);
}

/// Random 3-SAT over `nv` fresh variables at clause/var ratio 4.26, the
/// phase transition, where instances are hardest; returns the clauses.
std::vector<std::vector<Lit>> encode_threshold_3sat(Solver& s, int nv,
                                                    std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  for (int v = 0; v < nv; ++v) s.new_var();
  std::vector<std::vector<Lit>> clauses;
  const int nc = static_cast<int>(nv * 4.26);
  for (int c = 0; c < nc; ++c) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k) {
      const auto v = static_cast<std::int32_t>(rng.uniform(nv));
      cl.push_back(rng.uniform(2) ? Lit::pos(v) : Lit::neg(v));
    }
    clauses.push_back(cl);
    s.add_clause(cl);
  }
  return clauses;
}

TEST(Sat, LearntClauseDeletionFires) {
  // Without deletion every conflict adds one learnt clause or fixes one
  // root unit (at most one per variable), so a single solve from a fresh
  // instance ends with clauses >= original + conflicts - vars. Tens of
  // thousands of conflicts cross several reductions, each dropping half of
  // the deletable learnts.
  Solver s;
  const int nv = 200;
  encode_threshold_3sat(s, nv, 2);
  const std::int64_t original = s.num_clauses();
  EXPECT_EQ(s.solve(), Result::kUnsat);
  const SolverStats st = s.stats();
  ASSERT_GT(st.conflicts, 10000) << "instance too easy to reach a reduction";
  EXPECT_LT(st.clauses + nv, original + st.conflicts)
      << "learnt clauses were never deleted";
}

TEST(Sat, IncrementalCallsStayExactAcrossLearntReductions) {
  // One instance answers a run of probes under random assumptions, long
  // enough for learnt-clause reductions to fire mid-search and between
  // calls. Each verdict must match a fresh instance given the assumptions
  // as units, and each model must satisfy every clause and the assumptions.
  Solver s;
  const int nv = 200;
  const auto clauses = encode_threshold_3sat(s, nv, 10);
  Xoshiro256ss rng(99);
  int sat = 0, unsat = 0;
  for (int call = 0; call < 12; ++call) {
    std::vector<Lit> assumptions;
    for (int k = 0; k < 3; ++k) {
      const auto v = static_cast<std::int32_t>(rng.uniform(nv));
      assumptions.push_back(rng.uniform(2) ? Lit::pos(v) : Lit::neg(v));
    }
    const Result r = s.solve(assumptions);
    Solver fresh;
    encode_threshold_3sat(fresh, nv, 10);
    for (const Lit a : assumptions) fresh.add_unit(a);
    ASSERT_EQ(r, fresh.solve()) << "call " << call;
    if (r == Result::kUnsat) {
      ++unsat;
      continue;
    }
    ++sat;
    for (const Lit a : assumptions) {
      EXPECT_NE(s.value(a.var()), a.sign()) << "call " << call;
    }
    for (const auto& cl : clauses) {
      bool ok = false;
      for (const Lit l : cl) ok |= (s.value(l.var()) != l.sign());
      ASSERT_TRUE(ok) << "call " << call;
    }
  }
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
  // Reductions run every 8000 conflicts.
  EXPECT_GT(s.num_conflicts(), 16000) << "too few conflicts to reduce twice";
}

TEST(Cardinality, AtMostKBoundary) {
  const int n = 5;
  for (int k = 0; k < n; ++k) {
    for (int forced = 0; forced <= n; ++forced) {
      Solver s;
      std::vector<Lit> lits;
      for (int i = 0; i < n; ++i) lits.push_back(Lit::pos(s.new_var()));
      add_at_most_k(s, lits, k);
      for (int i = 0; i < forced; ++i) s.add_unit(lits[i]);
      const Result expected = forced <= k ? Result::kSat : Result::kUnsat;
      EXPECT_EQ(s.solve(), expected) << "k=" << k << " forced=" << forced;
    }
  }
}

TEST(Cardinality, AtMostKCountsModels) {
  // With n=5, k=2 and no other constraints the instance is SAT and any model
  // has at most 2 of the base vars true.
  Solver s;
  std::vector<Lit> lits;
  std::vector<std::int32_t> vars;
  for (int i = 0; i < 5; ++i) {
    vars.push_back(s.new_var());
    lits.push_back(Lit::pos(vars.back()));
  }
  add_at_most_k(s, lits, 2);
  ASSERT_EQ(s.solve(), Result::kSat);
  int count = 0;
  for (auto v : vars) count += s.value(v);
  EXPECT_LE(count, 2);
}

TEST(Cardinality, ExactlyOne) {
  Solver s;
  std::vector<Lit> lits;
  std::vector<std::int32_t> vars;
  for (int i = 0; i < 6; ++i) {
    vars.push_back(s.new_var());
    lits.push_back(Lit::pos(vars.back()));
  }
  add_exactly_one(s, lits);
  ASSERT_EQ(s.solve(), Result::kSat);
  int count = 0;
  for (auto v : vars) count += s.value(v);
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace qfto::sat
