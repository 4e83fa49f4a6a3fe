// Conformance suite for every registered sat::SolverInterface backend: one
// parameterized battery asserting the contract SATMAP's incremental search
// driver leans on — model soundness, cores-free assumption semantics
// (kUnsat under assumptions never poisons the instance), incremental clause
// addition, cancel/timeout behaviour, determinism across identical runs,
// and the DIMACS debug dump. Runs against "cdcl", the test-only "dpll"
// reference and anything a downstream registers. The mid-solve cancellation
// test exercises the cross-thread cancel token, which is what the CI TSan
// leg locks in.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/prng.hpp"
#include "sat/cardinality.hpp"
#include "sat/federation/ipasir_bridge.hpp"
#include "sat/solver_interface.hpp"
#include "support/dpll_solver.hpp"

namespace qfto::sat {
namespace {

// Registers the test-only "dpll" reference and loads the in-tree IPASIR stub
// .so before INSTANTIATE_TEST_SUITE_P below evaluates
// solver_backend_names(), so both run the exact same conformance battery as
// the built-in "cdcl". Static-initialization order is top-to-bottom within
// this TU, which is the only ordering this relies on.
const bool kDpllRegistered = (register_dpll_backend(), true);

#ifdef QFTO_IPASIR_STUB_PATH
std::string& stub_load_error() {
  static std::string error;
  return error;
}
const std::string& stub_backend_name() {
  static const std::string name = [] {
    try {
      return load_solver_plugin(QFTO_IPASIR_STUB_PATH);
    } catch (const std::exception& e) {
      stub_load_error() = e.what();
      return std::string();
    }
  }();
  return name;
}
const std::string& kStubLoaded = stub_backend_name();
#endif

class SatBackend : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<SolverInterface> fresh() const {
    return make_solver(GetParam());
  }
};

/// n-pigeons-into-(n-1)-holes: small, UNSAT, requires real search.
void encode_pigeonhole(SolverInterface& s, int pigeons) {
  const int holes = pigeons - 1;
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
}

/// Planted-solution random 3-SAT; returns the clauses for model checking.
std::vector<std::vector<Lit>> encode_planted(SolverInterface& s, int nv,
                                             int nc, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<std::int32_t> vars(nv);
  std::vector<bool> planted(nv);
  for (int i = 0; i < nv; ++i) {
    vars[i] = s.new_var();
    planted[i] = rng.uniform(2) == 1;
  }
  std::vector<std::vector<Lit>> clauses;
  for (int c = 0; c < nc; ++c) {
    std::vector<Lit> cl;
    bool satisfied = false;
    for (int k = 0; k < 3; ++k) {
      const int v = static_cast<int>(rng.uniform(nv));
      const bool neg = rng.uniform(2) == 1;
      cl.push_back(neg ? Lit::neg(vars[v]) : Lit::pos(vars[v]));
      satisfied |= (planted[v] != neg);
    }
    if (!satisfied) {
      cl[0] = cl[0].sign() ? Lit::pos(cl[0].var()) : Lit::neg(cl[0].var());
    }
    clauses.push_back(cl);
    s.add_clause(cl);
  }
  return clauses;
}

bool model_satisfies(const SolverInterface& s,
                     const std::vector<std::vector<Lit>>& clauses) {
  for (const auto& cl : clauses) {
    bool ok = false;
    for (Lit l : cl) ok |= (s.value(l.var()) != l.sign());
    if (!ok) return false;
  }
  return true;
}

TEST_P(SatBackend, ReportsItsRegistryName) {
  EXPECT_EQ(fresh()->name(), GetParam());
}

TEST_P(SatBackend, ModelsAreSoundOnPlantedRandomThreeSat) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto s = fresh();
    const auto clauses = encode_planted(*s, 20, 85, seed);
    ASSERT_EQ(s->solve({}), Result::kSat) << "seed " << seed;
    EXPECT_TRUE(model_satisfies(*s, clauses)) << "seed " << seed;
  }
}

TEST_P(SatBackend, PigeonholeIsUnsat) {
  auto s = fresh();
  encode_pigeonhole(*s, 5);
  EXPECT_EQ(s->solve({}), Result::kUnsat);
}

TEST_P(SatBackend, AssumptionsConstrainOnlyTheCall) {
  auto s = fresh();
  const auto a = s->new_var();
  const auto b = s->new_var();
  s->add_binary(Lit::pos(a), Lit::pos(b));

  ASSERT_EQ(s->solve({Lit::neg(a)}), Result::kSat);
  EXPECT_FALSE(s->value(a));
  EXPECT_TRUE(s->value(b));

  // Contradicting assumptions: UNSAT *under them*, not forever.
  EXPECT_EQ(s->solve({Lit::neg(a), Lit::neg(b)}), Result::kUnsat);
  ASSERT_EQ(s->solve({}), Result::kSat) << "instance must stay usable";
  ASSERT_EQ(s->solve({Lit::pos(a)}), Result::kSat);
  EXPECT_TRUE(s->value(a));
}

TEST_P(SatBackend, AssumptionRefutationLeavesLaterProbesIntact) {
  // The shape of SATMAP's deepening loop: activation literal per horizon;
  // refuting one horizon must not damage the next.
  auto s = fresh();
  const auto x = s->new_var();
  const auto act1 = s->new_var();
  const auto act2 = s->new_var();
  // act1 forces x and ~x (contradiction); act2 only forces x.
  s->add_implication(Lit::pos(act1), Lit::pos(x));
  s->add_implication(Lit::pos(act1), Lit::neg(x));
  s->add_implication(Lit::pos(act2), Lit::pos(x));

  EXPECT_EQ(s->solve({Lit::pos(act1)}), Result::kUnsat);
  s->add_unit(Lit::neg(act1));  // retire the refuted horizon
  ASSERT_EQ(s->solve({Lit::pos(act2)}), Result::kSat);
  EXPECT_TRUE(s->value(x));
}

TEST_P(SatBackend, ClausesAddedBetweenCallsTightenTheInstance) {
  auto s = fresh();
  const auto a = s->new_var();
  const auto b = s->new_var();
  s->add_binary(Lit::pos(a), Lit::pos(b));
  ASSERT_EQ(s->solve({}), Result::kSat);

  s->add_unit(Lit::neg(a));
  ASSERT_EQ(s->solve({}), Result::kSat);
  EXPECT_FALSE(s->value(a));
  EXPECT_TRUE(s->value(b));

  s->add_unit(Lit::neg(b));
  EXPECT_EQ(s->solve({}), Result::kUnsat);
  EXPECT_EQ(s->solve({}), Result::kUnsat) << "root UNSAT is terminal";
}

TEST_P(SatBackend, PreSetCancelTokenReturnsTimeout) {
  auto s = fresh();
  encode_pigeonhole(*s, 7);
  std::atomic<bool> cancel{true};
  EXPECT_EQ(s->solve({}, 0.0, &cancel), Result::kTimeout);
}

TEST_P(SatBackend, TinyBudgetTimesOutOnAHardInstance) {
  // On a very fast machine kUnsat is acceptable; kSat never is.
  auto s = fresh();
  encode_pigeonhole(*s, 9);
  EXPECT_NE(s->solve({}, 1e-6), Result::kSat);
}

TEST_P(SatBackend, MidSolveCancellationFromAnotherThread) {
  // A pigeonhole instance far beyond the reference backends' reach keeps the
  // solver busy until the token flips — the exact cross-thread shape the
  // MappingService uses to abort in-flight SATMAP jobs (TSan-checked in CI).
  auto s = fresh();
  encode_pigeonhole(*s, 11);
  std::atomic<bool> cancel{false};
  std::thread canceller([&cancel]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel.store(true, std::memory_order_relaxed);
  });
  const Result r = s->solve({}, 60.0, &cancel);
  canceller.join();
  EXPECT_NE(r, Result::kSat);
}

TEST_P(SatBackend, IdenticalRunsAreBitIdentical) {
  // Two fresh instances fed the same clause/solve sequence must agree on
  // verdicts, models and effort counters — the reproducibility SATMAP's
  // deterministic CI comparisons rely on.
  const auto run = [this](std::vector<bool>& model, SolverStats& stats) {
    auto s = fresh();
    const auto clauses = encode_planted(*s, 18, 76, 42);
    (void)clauses;
    EXPECT_EQ(s->solve({}), Result::kSat);
    s->add_unit(Lit::neg(0));
    EXPECT_EQ(s->solve({Lit::pos(1)}) == Result::kSat,
              s->solve({Lit::pos(1)}) == Result::kSat);
    model.clear();
    for (std::int32_t v = 0; v < s->num_vars(); ++v) {
      model.push_back(s->value(v));
    }
    stats = s->stats();
  };
  std::vector<bool> model_a, model_b;
  SolverStats stats_a, stats_b;
  run(model_a, stats_a);
  run(model_b, stats_b);
  EXPECT_EQ(model_a, model_b);
  EXPECT_EQ(stats_a.conflicts, stats_b.conflicts);
  EXPECT_EQ(stats_a.decisions, stats_b.decisions);
  EXPECT_EQ(stats_a.propagations, stats_b.propagations);
  EXPECT_EQ(stats_a.solve_calls, stats_b.solve_calls);
}

TEST_P(SatBackend, StatsAccumulateAcrossCalls) {
  auto s = fresh();
  encode_planted(*s, 16, 68, 7);
  ASSERT_EQ(s->solve({}), Result::kSat);
  const SolverStats first = s->stats();
  EXPECT_EQ(first.solve_calls, 1);
  EXPECT_GT(first.vars, 0);
  EXPECT_GT(first.clauses, 0);
  ASSERT_EQ(s->solve({}), Result::kSat);
  const SolverStats second = s->stats();
  EXPECT_EQ(second.solve_calls, 2);
  EXPECT_GE(second.conflicts, first.conflicts);
  EXPECT_GE(second.decisions, first.decisions);
}

// Tiny DIMACS reader for the round-trip and fixpoint tests below (p-line,
// zero-terminated clauses, 'c' comments).
struct Dimacs {
  std::int32_t num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

Dimacs parse_dimacs(const std::string& text) {
  Dimacs d;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) {
    if (tok == "c") {
      std::string rest;
      std::getline(in, rest);
    } else if (tok == "p") {
      std::string cnf;
      std::int32_t clause_count = 0;
      in >> cnf >> d.num_vars >> clause_count;
    } else {
      std::vector<Lit> clause;
      std::int32_t l = std::stoi(tok);
      while (l != 0) {
        clause.push_back(l > 0 ? Lit::pos(l - 1) : Lit::neg(-l - 1));
        if (!(in >> l)) break;
      }
      d.clauses.push_back(std::move(clause));
    }
  }
  return d;
}

void feed_dimacs(const std::string& text, SolverInterface& s) {
  Dimacs d = parse_dimacs(text);
  while (s.num_vars() < d.num_vars) s.new_var();
  for (auto& clause : d.clauses) s.add_clause(std::move(clause));
}

TEST_P(SatBackend, DimacsDumpReplaysToTheSameVerdict) {
  auto s = fresh();
  const auto clauses = encode_planted(*s, 14, 56, 3);
  (void)clauses;
  const auto gate = s->new_var();
  s->add_implication(Lit::pos(gate), Lit::pos(0));
  s->add_implication(Lit::pos(gate), Lit::neg(0));

  // Assumption-free dump: same verdict on replay.
  std::ostringstream plain;
  s->dump_dimacs(plain, {});
  auto replay = fresh();
  feed_dimacs(plain.str(), *replay);
  EXPECT_EQ(replay->solve({}), s->solve({}));

  // The refuting assumption exported as a unit flips the replay to UNSAT —
  // the "replay a TLE'd probe in an external solver" flow.
  std::ostringstream gated;
  s->dump_dimacs(gated, {Lit::pos(gate)});
  auto refuted = fresh();
  feed_dimacs(gated.str(), *refuted);
  EXPECT_EQ(s->solve({Lit::pos(gate)}), Result::kUnsat);
  EXPECT_EQ(refuted->solve({}), Result::kUnsat);
}

TEST_P(SatBackend, DumpAfterRootUnsatStaysUnsat) {
  auto s = fresh();
  const auto a = s->new_var();
  s->add_unit(Lit::pos(a));
  s->add_unit(Lit::neg(a));
  std::ostringstream out;
  s->dump_dimacs(out, {});
  auto replay = fresh();
  feed_dimacs(out.str(), *replay);
  EXPECT_EQ(replay->solve({}), Result::kUnsat);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredBackends, SatBackend,
    ::testing::ValuesIn(solver_backend_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ------------------------------------------------ cross-backend agreement --

TEST(SatBackendRegistry, KnowsTheInTreeBackends) {
  const auto names = solver_backend_names();
  EXPECT_TRUE(has_solver_backend("cdcl"));
  EXPECT_TRUE(has_solver_backend("dpll"));
  EXPECT_GE(names.size(), 2u);
  EXPECT_THROW(make_solver("no-such-backend"), std::invalid_argument);
}

#ifdef QFTO_IPASIR_STUB_PATH
TEST(IpasirPlugin, StubLoadsAndRegisters) {
  ASSERT_EQ(stub_load_error(), "") << "dlopen/resolve failed";
  ASSERT_FALSE(stub_backend_name().empty());
  EXPECT_TRUE(has_solver_backend(stub_backend_name()));
  // Name derives from the library stem with the "lib" prefix stripped.
  EXPECT_EQ(stub_backend_name(), "qfto_ipasir_stub");
}

TEST(IpasirPlugin, ProvenanceReportsPathAndSignature) {
  bool found = false;
  for (const auto& row : backend_provenance()) {
    if (row.name != stub_backend_name()) {
      EXPECT_FALSE(row.plugin) << row.name << " is built in";
      continue;
    }
    found = true;
    EXPECT_TRUE(row.plugin);
    EXPECT_EQ(row.path, QFTO_IPASIR_STUB_PATH);
    EXPECT_EQ(row.signature, "qfto-cdcl-ipasir-stub-1.0");
  }
  EXPECT_TRUE(found);
}

TEST(IpasirPlugin, ReloadingTheSamePluginIsIdempotent) {
  // A second load of an already-registered path must not crash or duplicate
  // the backend; a fresh name for the same .so is a distinct registration.
  EXPECT_EQ(load_solver_plugin(QFTO_IPASIR_STUB_PATH), stub_backend_name());
  const auto names = solver_backend_names();
  EXPECT_EQ(1, std::count(names.begin(), names.end(), stub_backend_name()));
}

TEST(IpasirPlugin, MissingLibraryFailsLoudly) {
  EXPECT_THROW(load_solver_plugin("/no/such/libsolver.so"),
               std::runtime_error);
}
#endif  // QFTO_IPASIR_STUB_PATH

TEST(SatBackendRegistry, BackendsAgreeOnRandomInstances) {
  // Differential check near the 3-SAT phase transition (clause/var ≈ 4.26),
  // where both verdicts occur: every backend must agree on every instance.
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    Xoshiro256ss rng(seed);
    const int nv = 12, nc = 51;
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < nc; ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k) {
        const auto v = static_cast<std::int32_t>(rng.uniform(nv));
        cl.push_back(rng.uniform(2) ? Lit::pos(v) : Lit::neg(v));
      }
      clauses.push_back(cl);
    }
    Result reference = Result::kTimeout;
    for (const auto& name : solver_backend_names()) {
      auto s = make_solver(name);
      for (int v = 0; v < nv; ++v) s->new_var();
      for (const auto& cl : clauses) s->add_clause(cl);
      const Result r = s->solve({});
      ASSERT_NE(r, Result::kTimeout) << name << " seed " << seed;
      if (reference == Result::kTimeout) {
        reference = r;
      } else {
        EXPECT_EQ(r, reference) << name << " disagrees on seed " << seed;
      }
    }
  }
}

TEST(SatBackendRegistry, BackendsAgreeOverIncrementalAssumptionCalls) {
  // Differential check at scale: 200 instances of 30-40 variables, 3-SAT
  // near the threshold with binary clauses mixed in, each solved over
  // several incremental calls under random assumptions. Every backend must
  // agree on every verdict, and every model must satisfy every clause and
  // the call's assumptions.
  const auto names = solver_backend_names();
  int sat = 0, unsat = 0;
  for (std::uint64_t seed = 1000; seed < 1200; ++seed) {
    Xoshiro256ss rng(seed);
    const auto nv = static_cast<std::int32_t>(30 + rng.uniform(11));
    const auto random_lit = [&rng, nv]() {
      const auto v = static_cast<std::int32_t>(rng.uniform(nv));
      return rng.uniform(2) ? Lit::pos(v) : Lit::neg(v);
    };
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < nv * 7 / 2; ++c) {
      clauses.push_back({random_lit(), random_lit(), random_lit()});
    }
    for (int c = 0; c < nv / 3; ++c) {
      clauses.push_back({random_lit(), random_lit()});
    }
    std::vector<std::unique_ptr<SolverInterface>> solvers;
    for (const auto& name : names) {
      solvers.push_back(make_solver(name));
      for (std::int32_t v = 0; v < nv; ++v) solvers.back()->new_var();
      for (const auto& cl : clauses) solvers.back()->add_clause(cl);
    }
    for (int call = 0; call < 6; ++call) {
      std::vector<Lit> assumptions;
      const auto k = rng.uniform(4);
      for (std::uint64_t i = 0; i < k; ++i) assumptions.push_back(random_lit());
      Result reference = Result::kTimeout;
      for (std::size_t b = 0; b < solvers.size(); ++b) {
        SolverInterface& s = *solvers[b];
        const Result r = s.solve(assumptions);
        ASSERT_NE(r, Result::kTimeout) << names[b] << " seed " << seed;
        if (b == 0) reference = r;
        EXPECT_EQ(r, reference) << names[b] << " disagrees on seed " << seed
                                << " call " << call;
        if (r != Result::kSat) continue;
        EXPECT_TRUE(model_satisfies(s, clauses))
            << names[b] << " seed " << seed << " call " << call;
        for (const Lit a : assumptions) {
          EXPECT_NE(s.value(a.var()), a.sign())
              << names[b] << " ignores an assumption on seed " << seed
              << " call " << call;
        }
      }
      (reference == Result::kSat ? sat : unsat) += 1;
    }
  }
  EXPECT_GT(sat, 100);
  EXPECT_GT(unsat, 100);
}

/// True when the unit clauses of a DIMACS dump are closed under unit
/// propagation over its other clauses: no clause is falsified, and none has
/// exactly one literal left unassigned with the rest false.
bool root_facts_at_fixpoint(const Dimacs& d) {
  std::vector<std::int8_t> value(static_cast<std::size_t>(d.num_vars), 0);
  for (const auto& clause : d.clauses) {
    if (clause.size() == 1) value[clause[0].var()] = clause[0].sign() ? -1 : 1;
  }
  for (const auto& clause : d.clauses) {
    if (clause.size() < 2) continue;
    std::size_t open = 0;
    bool satisfied = false;
    for (const Lit l : clause) {
      const std::int8_t v = value[l.var()];
      if (v == 0) ++open;
      satisfied |= v == (l.sign() ? -1 : 1);
    }
    if (!satisfied && open <= 1) return false;
  }
  return true;
}

TEST(CdclIncremental, RootStaysAtPropagationFixpointAcrossProbes) {
  // A learnt unit enqueued at the root must be propagated before the next
  // decision, even when a restart fires in the same conflict iteration:
  // root simplification strips clauses on the assumption that it was. After
  // every call the dumped root facts must be closed under unit propagation,
  // and every verdict must match a fresh solver given the assumptions as
  // units.
  std::int64_t conflicts = 0;
  for (std::uint32_t seed = 0; seed < 400; ++seed) {
    std::mt19937 rng(seed);
    const auto nv = static_cast<std::int32_t>(120 + rng() % 20);
    const auto random_lit = [&rng, nv]() {
      const auto v = static_cast<std::int32_t>(rng() % nv);
      return rng() % 2 ? Lit::neg(v) : Lit::pos(v);
    };
    std::vector<std::vector<Lit>> clauses;
    for (std::int32_t c = 0; c < nv / 2; ++c) {
      clauses.push_back({random_lit(), random_lit()});
    }
    for (std::int32_t c = 0; c < nv * 7 / 2; ++c) {
      clauses.push_back({random_lit(), random_lit(), random_lit()});
    }
    auto s = make_solver("cdcl");
    for (std::int32_t v = 0; v < nv; ++v) s->new_var();
    for (const auto& cl : clauses) s->add_clause(cl);
    for (int probe = 0; probe < 6; ++probe) {
      std::vector<Lit> assumptions;
      const auto k = rng() % 4;
      for (std::uint32_t i = 0; i < k; ++i) assumptions.push_back(random_lit());
      const Result r = s->solve(assumptions);
      ASSERT_NE(r, Result::kTimeout) << "seed " << seed << " probe " << probe;

      std::ostringstream dump;
      s->dump_dimacs(dump, {});
      ASSERT_TRUE(root_facts_at_fixpoint(parse_dimacs(dump.str())))
          << "seed " << seed << " probe " << probe << " after "
          << s->stats().conflicts << " conflicts";

      auto fresh = make_solver("cdcl");
      for (std::int32_t v = 0; v < nv; ++v) fresh->new_var();
      for (const auto& cl : clauses) fresh->add_clause(cl);
      for (const Lit a : assumptions) fresh->add_unit(a);
      ASSERT_EQ(r, fresh->solve({})) << "seed " << seed << " probe " << probe;

      clauses.push_back({random_lit(), random_lit(), random_lit()});
      s->add_clause(clauses.back());
    }
    conflicts += s->stats().conflicts;
  }
  EXPECT_GT(conflicts, 0);
}

}  // namespace
}  // namespace qfto::sat
