// Portfolio racer tests: the PortfolioSolver must be answer-identical to a
// single backend (verdicts, and downstream SATMAP's minimal T / minimal
// SWAP count), actually cancel its losing lanes, forward external cancel
// tokens, and keep its process-wide racing counters honest. The losing-lane
// checks race real threads, which is what the CI TSan leg locks in.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/grid.hpp"
#include "arch/line.hpp"
#include "baseline/satmap.hpp"
#include "circuit/qft_spec.hpp"
#include "common/prng.hpp"
#include "common/timer.hpp"
#include "sat/federation/portfolio.hpp"
#include "sat/solver_interface.hpp"
#include "verify/qft_checker.hpp"

namespace qfto::sat {
namespace {

// ------------------------------------------------------- test-only backend --

/// Never decides anything: spins until the cooperative cancel token flips
/// (or a failsafe deadline passes), then reports kTimeout. Racing it against
/// a real backend makes "the losing lane was actually cancelled" a
/// deterministic assertion instead of a timing accident.
class HangSolver final : public SolverInterface {
 public:
  std::string name() const override { return "hang"; }
  std::int32_t new_var() override { return num_vars_++; }
  std::int32_t num_vars() const override { return num_vars_; }
  void add_clause(std::vector<Lit> lits) override {
    clauses_.push_back(std::move(lits));
  }
  Result solve(const std::vector<Lit>& /*assumptions*/, double budget_seconds,
               const std::atomic<bool>* cancel) override {
    ++stats_.solve_calls;
    // Failsafe: never wedge the test binary if cancellation is broken —
    // that failure mode shows up as a kTimeout long after the winner, which
    // the assertions below still catch via the cancellation counters.
    const Deadline failsafe(budget_seconds > 0.0 ? budget_seconds : 30.0);
    while (!(cancel != nullptr && cancel->load(std::memory_order_relaxed)) &&
           !failsafe.expired()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return Result::kTimeout;
  }
  bool value(std::int32_t /*var*/) const override { return false; }
  SolverStats stats() const override {
    SolverStats s = stats_;
    s.clauses = static_cast<std::int64_t>(clauses_.size());
    s.vars = num_vars_;
    return s;
  }
  void dump_dimacs(std::ostream& /*out*/,
                   const std::vector<Lit>& /*extra_units*/) const override {}
  using SolverInterface::dump_dimacs;

 private:
  std::int32_t num_vars_ = 0;
  std::vector<std::vector<Lit>> clauses_;
  SolverStats stats_;
};

const bool kHangRegistered = [] {
  register_solver_backend("hang", [] {
    return std::unique_ptr<SolverInterface>(std::make_unique<HangSolver>());
  });
  return true;
}();

// ------------------------------------------------------------ SAT helpers --

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

// ------------------------------------------------------- solver-level tests --

TEST(PortfolioSolver, SatModelIsSoundAndWinnerIsLabelled) {
  ASSERT_TRUE(kHangRegistered);
  PortfolioOptions opts;
  opts.lanes = 3;
  opts.clamp_to_cores = false;  // assert real racing even on 1-core runners
  PortfolioSolver s(opts);
  EXPECT_EQ(s.num_lanes(), 3);
  EXPECT_EQ(s.name(), "portfolio[cdcl#0,cdcl#1,cdcl#2]");
  EXPECT_EQ(s.winner(), "") << "no probe decided yet";

  const auto clauses = encode_planted(s, 20, 85, 5);
  ASSERT_EQ(s.solve({}), Result::kSat);
  EXPECT_TRUE(model_satisfies(s, clauses));
  EXPECT_NE(s.winner(), "");
  EXPECT_EQ(s.winner().rfind("cdcl#", 0), 0u) << s.winner();
}

TEST(PortfolioSolver, UnsatVerdictMatchesSingleBackend) {
  PortfolioOptions opts;
  opts.lanes = 2;
  opts.clamp_to_cores = false;
  PortfolioSolver s(opts);
  // x & ~x via two units is root-level UNSAT in every lane.
  const auto x = s.new_var();
  s.add_unit(Lit::pos(x));
  s.add_unit(Lit::neg(x));
  EXPECT_EQ(s.solve({}), Result::kUnsat);
  EXPECT_EQ(s.solve({}), Result::kUnsat) << "root UNSAT is terminal";
}

TEST(PortfolioSolver, AssumptionsConstrainOnlyTheCall) {
  PortfolioOptions opts;
  opts.lanes = 2;
  opts.clamp_to_cores = false;
  PortfolioSolver s(opts);
  const auto a = s.new_var();
  const auto b = s.new_var();
  s.add_binary(Lit::pos(a), Lit::pos(b));
  ASSERT_EQ(s.solve({Lit::neg(a)}), Result::kSat);
  EXPECT_FALSE(s.value(a));
  EXPECT_TRUE(s.value(b));
  EXPECT_EQ(s.solve({Lit::neg(a), Lit::neg(b)}), Result::kUnsat);
  ASSERT_EQ(s.solve({}), Result::kSat) << "instance must stay usable";
}

TEST(PortfolioSolver, SingleLaneIsBitIdenticalToTheBareBackend) {
  // Lane 0 keeps the backend's deterministic default (no diversification),
  // so a 1-lane portfolio must reproduce the bare backend exactly: verdict,
  // model and search-effort counters.
  PortfolioOptions opts;
  opts.lanes = 1;
  PortfolioSolver racing(opts);
  auto bare = make_solver("cdcl");
  const auto clauses_a = encode_planted(racing, 18, 76, 42);
  const auto clauses_b = encode_planted(*bare, 18, 76, 42);
  ASSERT_EQ(racing.solve({}), Result::kSat);
  ASSERT_EQ(bare->solve({}), Result::kSat);
  for (std::int32_t v = 0; v < bare->num_vars(); ++v) {
    EXPECT_EQ(racing.value(v), bare->value(v)) << "model diverged at " << v;
  }
  EXPECT_EQ(racing.stats().conflicts, bare->stats().conflicts);
  EXPECT_EQ(racing.stats().decisions, bare->stats().decisions);
  EXPECT_EQ(racing.stats().propagations, bare->stats().propagations);
}

TEST(PortfolioSolver, LosingLanesAreActuallyCancelled) {
  ASSERT_TRUE(kHangRegistered);
  reset_portfolio_counters();
  PortfolioOptions opts;
  opts.lanes = 2;
  opts.clamp_to_cores = false;
  opts.backends = {"cdcl", "hang"};
  opts.stagger_us = 0;  // both lanes race immediately
  PortfolioSolver s(opts);
  EXPECT_EQ(s.name(), "portfolio[cdcl#0,hang#1]");

  const auto a = s.new_var();
  s.add_unit(Lit::pos(a));
  // The hang lane never answers: a definitive verdict here proves the cdcl
  // lane won AND the hang lane was interrupted (solve() only returns once
  // every lane has left its inner solve).
  ASSERT_EQ(s.solve({}), Result::kSat);
  EXPECT_TRUE(s.value(a));
  EXPECT_EQ(s.winner(), "cdcl#0");
  EXPECT_GE(s.lane_cancellations(), 1);

  const PortfolioCounters c = portfolio_counters();
  EXPECT_EQ(c.races, 1);
  EXPECT_GE(c.lane_cancellations, 1);
  EXPECT_EQ(c.wins_by_backend.count("hang"), 0u);
  ASSERT_EQ(c.wins_by_backend.count("cdcl"), 1u);
  EXPECT_EQ(c.wins_by_backend.at("cdcl"), 1);

  // Three more probes: the winner table must keep ranking cdcl first and
  // every probe must keep cancelling the hang lane.
  for (int probe = 0; probe < 3; ++probe) {
    ASSERT_EQ(s.solve({}), Result::kSat) << "probe " << probe;
  }
  EXPECT_GE(s.lane_cancellations(), 4);
  EXPECT_EQ(portfolio_counters().races, 4);
}

TEST(PortfolioSolver, ExternalCancelTokenWinsOverEveryLane) {
  ASSERT_TRUE(kHangRegistered);
  PortfolioOptions opts;
  opts.lanes = 2;
  opts.clamp_to_cores = false;
  opts.backends = {"hang", "hang"};
  PortfolioSolver s(opts);
  const auto a = s.new_var();
  s.add_unit(Lit::pos(a));

  std::atomic<bool> cancel{false};
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.store(true, std::memory_order_relaxed);
  });
  const Result r = s.solve({}, 30.0, &cancel);
  canceller.join();
  EXPECT_EQ(r, Result::kTimeout);
  EXPECT_EQ(s.winner(), "") << "no lane may claim a cancelled probe";
}

TEST(PortfolioSolver, StatsSumLanesAndCountPortfolioProbes) {
  PortfolioOptions opts;
  opts.lanes = 2;
  opts.clamp_to_cores = false;
  PortfolioSolver s(opts);
  encode_planted(s, 16, 68, 7);
  ASSERT_EQ(s.solve({}), Result::kSat);
  const SolverStats st = s.stats();
  EXPECT_EQ(st.solve_calls, 1) << "portfolio-level probes, not lane calls";
  EXPECT_EQ(st.vars, 16);
  EXPECT_GT(st.clauses, 0);
}

// --------------------------------------------------------- SATMAP coupling --

TEST(PortfolioSatmap, OptimaMatchSingleBackendOnLineAndGrid) {
  // The acceptance bar: racing changes wall-clock, never answers. Same
  // minimal T and minimal SWAP count as the single-backend incremental
  // driver on every instance CI can afford to solve twice.
  struct Case {
    std::int32_t n;
    CouplingGraph graph;
  };
  const std::vector<Case> cases = {
      {3, make_line(3)},
      {4, make_line(4)},
      {4, make_grid(2, 2)},
      {5, make_line(5)},
      {5, make_grid(2, 3)},
  };
  for (const Case& c : cases) {
    SatmapOptions single;
    single.time_budget_seconds = 120.0;
    SatmapOptions racing = single;
    racing.portfolio = true;
    racing.lanes = 2;
    const SatmapResult a = satmap_route(qft_logical(c.n), c.graph, single);
    const SatmapResult b = satmap_route(qft_logical(c.n), c.graph, racing);
    ASSERT_TRUE(a.solved) << "single-backend TLE at n=" << c.n;
    ASSERT_TRUE(b.solved) << "portfolio TLE at n=" << c.n;
    EXPECT_EQ(a.layers, b.layers) << "minimal T diverged at n=" << c.n;
    EXPECT_EQ(a.swaps, b.swaps) << "minimal SWAPs diverged at n=" << c.n;
    EXPECT_EQ(a.winner, "") << "single-backend runs carry no winner";
    EXPECT_NE(b.winner, "") << "portfolio runs must name the deciding lane";
    const auto chk = check_qft_mapping(b.mapped, c.graph);
    ASSERT_TRUE(chk.ok) << "n=" << c.n << ": " << chk.error;
  }
}

}  // namespace
}  // namespace qfto::sat
