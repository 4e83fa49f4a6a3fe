#include "baseline/satmap.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "circuit/dag.hpp"
#include "circuit/stats.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "sat/cardinality.hpp"
#include "sat/federation/portfolio.hpp"

namespace qfto {

namespace {

using sat::Lit;
using sat::Result;
using sat::SolverInterface;

// Per-step constraint machinery shared by both search drivers, so the
// incremental and monolithic paths can never drift apart on encoding
// content: map_var[t][l][p], exec_var[t][i], sched_var[t][i] (prefix of
// exec), grown one time step at a time. Only the horizon-completion
// constraint ("every gate executes by T") differs — gated behind an
// activation literal on the incremental path, asserted outright on the
// monolithic one — plus the SWAP bound (assumption-tightened counter vs
// baked-in at-most-k).
class Encoder {
 public:
  /// `dag` is the strict DAG of `logical` (built once by satmap_route and
  /// shared across probes — the monolithic driver constructs an Encoder per
  /// probe).
  Encoder(SolverInterface& s, const Circuit& logical, const CouplingGraph& g,
          const Dag& dag)
      : s_(s),
        logical_(logical),
        g_(g),
        n_(logical.num_qubits()),
        np_(g.num_qubits()),
        ng_(static_cast<std::int32_t>(logical.size())) {
    for (std::size_t i = 0; i < dag.size(); ++i) {
      for (auto j : dag.succ[i]) {
        dep_edges_.emplace_back(static_cast<std::int32_t>(i), j);
      }
    }
    touching_.resize(n_);
    for (std::int32_t l = 0; l < n_; ++l) {
      for (std::int32_t i = 0; i < ng_; ++i) {
        if (logical_[i].touches(l)) touching_[l].push_back(i);
      }
    }
  }

  /// Encodes time steps 0..layers (idempotent for layers already covered).
  void extend_to(std::int32_t layers) {
    while (static_cast<std::int32_t>(exec_var_.size()) <= layers) {
      add_step(static_cast<std::int32_t>(exec_var_.size()));
    }
  }

  /// Monolithic horizon: every gate executes within 0..layers, outright.
  void require_horizon(std::int32_t layers) {
    for (std::int32_t i = 0; i < ng_; ++i) {
      std::vector<Lit> times;
      for (std::int32_t t = 0; t <= layers; ++t) times.push_back(ex(t, i));
      s_.add_clause(times);
    }
  }

  /// Incremental horizon: a fresh activation literal `a` with
  /// a -> (gate i executes within 0..layers) for every gate. Solve under
  /// the assumption `a`; retire() it before gating the next horizon.
  Lit gate_horizon(std::int32_t layers) {
    const Lit a = Lit::pos(s_.new_var());
    for (std::int32_t i = 0; i < ng_; ++i) {
      std::vector<Lit> clause{~a};
      for (std::int32_t t = 0; t <= layers; ++t) clause.push_back(ex(t, i));
      s_.add_clause(clause);
    }
    return a;
  }

  /// Permanently deactivates a retired horizon's completion clauses (sound:
  /// larger horizons only weaken the constraint).
  void retire(Lit activation) { s_.add_unit(~activation); }

  /// Monolithic SWAP bound: move indicators over transitions 0..layers-1
  /// with a baked-in sequential-counter at-most-`budget`.
  void bound_swaps(std::int32_t layers, std::int32_t budget) {
    sat::add_at_most_k(s_, movers(layers), budget);
  }

  /// Incremental SWAP bound: the cached move indicators feeding a
  /// sequential counter of width `width`, returning the unary output chain
  /// s_j = "at least j+1 SWAPs across the schedule". Assuming ~s_b enforces
  /// at-most-b, so one encoding serves every budget probe at this horizon —
  /// and when the descent drops far below `width`, the caller re-requests a
  /// narrower counter over the same movers (old registers go quiescent:
  /// nothing constrains them once their outputs stop being assumed).
  std::vector<Lit> swap_outputs(std::int32_t layers, std::int32_t width) {
    const auto r = sat::add_sequential_counter(s_, movers(layers), width);
    return r.back();  // "at least j+1 SWAPs across the whole schedule"
  }

  std::int32_t map_var(std::int32_t t, std::int32_t l, std::int32_t p) const {
    return map_var_[t][l][p];
  }
  std::int32_t exec_var(std::int32_t t, std::int32_t i) const {
    return exec_var_[t][i];
  }

 private:
  Lit mp(std::int32_t t, std::int32_t l, std::int32_t p) const {
    return Lit::pos(map_var_[t][l][p]);
  }
  Lit ex(std::int32_t t, std::int32_t i) const {
    return Lit::pos(exec_var_[t][i]);
  }
  Lit sc(std::int32_t t, std::int32_t i) const {
    return Lit::pos(sched_var_[t][i]);
  }

  void add_step(std::int32_t t) {
    auto& row = map_var_.emplace_back();
    row.assign(n_, std::vector<std::int32_t>(np_));
    for (std::int32_t l = 0; l < n_; ++l) {
      for (std::int32_t p = 0; p < np_; ++p) row[l][p] = s_.new_var();
    }
    auto& exec = exec_var_.emplace_back();
    auto& sched = sched_var_.emplace_back();
    exec.resize(ng_);
    sched.resize(ng_);
    for (std::int32_t i = 0; i < ng_; ++i) {
      exec[i] = s_.new_var();
      sched[i] = s_.new_var();
    }

    // Mapping is an injection at this step.
    for (std::int32_t l = 0; l < n_; ++l) {
      std::vector<Lit> lits;
      for (std::int32_t p = 0; p < np_; ++p) lits.push_back(mp(t, l, p));
      sat::add_exactly_one(s_, lits);
    }
    for (std::int32_t p = 0; p < np_; ++p) {
      std::vector<Lit> col;
      for (std::int32_t l = 0; l < n_; ++l) col.push_back(mp(t, l, p));
      sat::add_at_most_one(s_, col);
    }

    // A gate executes at most once across time; prefix variables are
    // monotone and tied to execution. (The at-least-once half is the
    // horizon-completion constraint.)
    for (std::int32_t i = 0; i < ng_; ++i) {
      for (std::int32_t u = 0; u < t; ++u) {
        s_.add_binary(~ex(u, i), ~ex(t, i));
      }
      if (t == 0) {
        s_.add_implication(ex(0, i), sc(0, i));
        s_.add_implication(sc(0, i), ex(0, i));
      } else {
        s_.add_implication(ex(t, i), sc(t, i));
        s_.add_implication(sc(t - 1, i), sc(t, i));
        // sched[t] -> sched[t-1] or exec[t]
        s_.add_ternary(~sc(t, i), sc(t - 1, i), ex(t, i));
      }
    }

    // Strict dependencies: exec[j][t] -> sched[i][t] (shared-qubit gates can
    // never share a layer thanks to the per-qubit exclusion below, so this
    // yields strictly-before).
    for (const auto& [i, j] : dep_edges_) {
      s_.add_implication(ex(t, j), sc(t, i));
    }

    // Per-qubit per-layer exclusion.
    for (std::int32_t l = 0; l < n_; ++l) {
      std::vector<Lit> lits;
      for (auto i : touching_[l]) lits.push_back(ex(t, i));
      sat::add_at_most_one(s_, lits);
    }

    // Adjacency for two-qubit gates.
    for (std::int32_t i = 0; i < ng_; ++i) {
      const Gate& gate = logical_[i];
      if (!gate.two_qubit()) continue;
      for (std::int32_t p = 0; p < np_; ++p) {
        std::vector<Lit> cl{~ex(t, i), ~mp(t, gate.q0, p)};
        for (PhysicalQubit q : g_.neighbors(p)) cl.push_back(mp(t, gate.q1, q));
        s_.add_clause(cl);
      }
    }

    // Movement: between steps a qubit stays or crosses one edge; crossings
    // are swaps (the displaced occupant moves the other way).
    if (t > 0) {
      for (std::int32_t l = 0; l < n_; ++l) {
        for (std::int32_t p = 0; p < np_; ++p) {
          std::vector<Lit> cl{~mp(t - 1, l, p), mp(t, l, p)};
          for (PhysicalQubit q : g_.neighbors(p)) cl.push_back(mp(t, l, q));
          s_.add_clause(cl);
          for (PhysicalQubit q : g_.neighbors(p)) {
            for (std::int32_t l2 = 0; l2 < n_; ++l2) {
              if (l2 == l) continue;
              // l moves p->q and l2 was at q  =>  l2 moves q->p.
              s_.add_clause({~mp(t - 1, l, p), ~mp(t, l, q), ~mp(t - 1, l2, q),
                             mp(t, l2, p)});
            }
          }
        }
      }
    }
  }

  /// Indicator per (transition, undirected edge p<q): some qubit crossed
  /// it. Built once per horizon and cached — counters of different widths
  /// share the same indicators.
  const std::vector<Lit>& movers(std::int32_t layers) {
    require(movers_.empty() || movers_layers_ == layers,
            "movers: horizon changed after counters were built");
    if (!movers_.empty()) return movers_;
    movers_layers_ = layers;
    for (std::int32_t t = 0; t < layers; ++t) {
      for (std::int32_t p = 0; p < np_; ++p) {
        for (PhysicalQubit q : g_.neighbors(p)) {
          if (q < p) continue;
          const Lit v = Lit::pos(s_.new_var());
          movers_.push_back(v);
          for (std::int32_t l = 0; l < n_; ++l) {
            s_.add_ternary(~mp(t, l, p), ~mp(t + 1, l, q), v);
            s_.add_ternary(~mp(t, l, q), ~mp(t + 1, l, p), v);
          }
        }
      }
    }
    return movers_;
  }

  SolverInterface& s_;
  const Circuit& logical_;
  const CouplingGraph& g_;
  std::int32_t n_, np_, ng_;
  std::vector<std::pair<std::int32_t, std::int32_t>> dep_edges_;
  std::vector<std::vector<std::int32_t>> touching_;
  std::vector<std::vector<std::vector<std::int32_t>>> map_var_;
  std::vector<std::vector<std::int32_t>> exec_var_;
  std::vector<std::vector<std::int32_t>> sched_var_;
  std::vector<Lit> movers_;
  std::int32_t movers_layers_ = -1;
};

/// The probe solver: a bare registry backend, or — with portfolio racing on
/// — N diversified lanes behind one PortfolioSolver, fed the identical
/// encoding. Both drivers create their solvers through this one choke point
/// so racing composes with either search strategy.
std::unique_ptr<SolverInterface> make_search_solver(const SatmapOptions& opts) {
  if (!opts.portfolio || opts.lanes <= 1) return sat::make_solver(opts.solver);
  sat::PortfolioOptions popts;
  popts.lanes = opts.lanes;
  popts.backends = opts.portfolio_backends.empty()
                       ? std::vector<std::string>{opts.solver}
                       : opts.portfolio_backends;
  return std::make_unique<sat::PortfolioSolver>(popts);
}

/// Winning-lane label for provenance; empty for non-portfolio solvers.
std::string solver_winner(const SolverInterface& solver) {
  const auto* pf = dynamic_cast<const sat::PortfolioSolver*>(&solver);
  return pf != nullptr ? pf->winner() : std::string();
}

struct Extracted {
  MappedCircuit mapped;
  std::int64_t swaps = 0;
};

Extracted extract(const SolverInterface& s, const Encoder& e,
                  const Circuit& logical, const CouplingGraph& g,
                  std::int32_t layers) {
  const std::int32_t n = logical.num_qubits();
  const std::int32_t np = g.num_qubits();
  auto mapping_at = [&](std::int32_t t) {
    std::vector<PhysicalQubit> m(n, -1);
    for (std::int32_t l = 0; l < n; ++l) {
      for (std::int32_t p = 0; p < np; ++p) {
        if (s.value(e.map_var(t, l, p))) m[l] = p;
      }
    }
    return m;
  };

  Extracted out;
  out.mapped.circuit = Circuit(np);
  out.mapped.initial = mapping_at(0);
  std::vector<std::int32_t> occupant(np, -1);  // physical -> logical at t
  for (std::int32_t t = 0; t <= layers; ++t) {
    const auto now = mapping_at(t);
    for (std::size_t i = 0; i < logical.size(); ++i) {
      if (!s.value(e.exec_var(t, static_cast<std::int32_t>(i)))) continue;
      Gate hw = logical[i];
      hw.q0 = now[logical[i].q0];
      if (hw.two_qubit()) hw.q1 = now[logical[i].q1];
      out.mapped.circuit.append(hw);
    }
    if (t == layers) break;
    const auto next = mapping_at(t + 1);
    // The movement constraints admit exactly two kinds of move: a paired
    // exchange (the displaced occupant crosses back) and a slide into an
    // *empty* cell (n < np). Emit one SWAP per exchange (from the smaller
    // physical id) and one per slide — dropping slides would teleport the
    // qubit out from under the checker's occupancy tracking.
    std::fill(occupant.begin(), occupant.end(), -1);
    for (std::int32_t l = 0; l < n; ++l) occupant[now[l]] = l;
    for (std::int32_t l = 0; l < n; ++l) {
      if (next[l] == now[l]) continue;
      const std::int32_t partner = occupant[next[l]];
      if (partner >= 0 && now[l] > next[l]) continue;  // the pair's other half
      out.mapped.circuit.append(Gate::swap(now[l], next[l]));
      ++out.swaps;
    }
  }
  out.mapped.final_mapping = mapping_at(layers);
  return out;
}

struct SearchContext {
  const Circuit& logical;
  const CouplingGraph& g;
  const Dag& dag;
  const SatmapOptions& opts;
  std::int32_t lower;
  Deadline& deadline;

  bool cancelled() const {
    return opts.cancel != nullptr &&
           opts.cancel->load(std::memory_order_relaxed);
  }
};

/// The paper-faithful driver: a fresh solver and a full re-encode for every
/// deepening layer and every SWAP-budget probe. Kept as the differential
/// oracle for the incremental driver and as the bench_sat baseline.
void route_monolithic(const SearchContext& ctx, SatmapResult& result) {
  const SatmapOptions& opts = ctx.opts;
  std::unique_ptr<SolverInterface> last_solver;  // kept alive for dump_cnf
  // The budget can run out *during* the (expensive) per-probe re-encode, and
  // SolverInterface::solve treats a non-positive budget as unlimited — so
  // the remaining budget is measured after encoding, and an exhausted one
  // comes back as kTimeout instead of reaching the solver.
  const auto probe = [&](std::int32_t layers, std::int32_t swap_budget) {
    last_solver = make_search_solver(opts);
    Encoder enc(*last_solver, ctx.logical, ctx.g, ctx.dag);
    enc.extend_to(layers);
    enc.require_horizon(layers);
    if (swap_budget >= 0) enc.bound_swaps(layers, swap_budget);
    const double remaining = ctx.deadline.remaining_seconds();
    const Result r =
        ctx.deadline.expired()
            ? Result::kTimeout
            : last_solver->solve({}, remaining, opts.cancel);
    result.stats += last_solver->stats();
    const std::string w = solver_winner(*last_solver);
    if (!w.empty()) result.winner = w;
    return std::make_pair(
        r, r == Result::kSat
               ? extract(*last_solver, enc, ctx.logical, ctx.g, layers)
               : Extracted{});
  };

  for (std::int32_t layers = ctx.lower; layers <= opts.max_layers; ++layers) {
    if (ctx.cancelled()) {
      result.cancelled = true;
      break;
    }
    if (ctx.deadline.expired()) {
      result.timed_out = true;
      break;
    }
    auto [r, best] = probe(layers, -1);
    if (r == Result::kTimeout) {
      // The solver reports kTimeout for both outcomes; the flag says which.
      if (ctx.cancelled()) {
        result.cancelled = true;
      } else {
        result.timed_out = true;
      }
      break;
    }
    if (r == Result::kUnsat) continue;

    result.solved = true;
    result.layers = layers;

    if (opts.minimize_swaps) {
      std::int64_t budget = best.swaps - 1;
      while (budget >= 0 && !ctx.deadline.expired() && !ctx.cancelled()) {
        auto [r2, tighter] =
            probe(layers, static_cast<std::int32_t>(budget));
        if (r2 != Result::kSat) break;  // keep the depth-minimal schedule
        best = std::move(tighter);
        budget = best.swaps - 1;
      }
    }
    result.mapped = std::move(best.mapped);
    result.swaps = best.swaps;
    break;
  }
  if (!opts.dump_cnf_path.empty() && last_solver != nullptr &&
      !last_solver->dump_dimacs(opts.dump_cnf_path)) {
    std::fprintf(stderr, "satmap: cannot write CNF dump to '%s'\n",
                 opts.dump_cnf_path.c_str());
  }
}

/// The incremental driver: ONE solver instance carries the whole search.
/// The max-layers skeleton grows step by step, each horizon's completion
/// constraint rides a fresh activation literal assumed for that probe (and
/// retired with a unit afterwards), and the SAT-UNSAT SWAP descent tightens
/// one sequential-counter output chain with assumptions — learnt clauses,
/// saved phases and variable activity persist across every probe instead of
/// being rebuilt and thrown away.
void route_incremental(const SearchContext& ctx, SatmapResult& result) {
  const SatmapOptions& opts = ctx.opts;
  const std::unique_ptr<SolverInterface> solver = make_search_solver(opts);
  Encoder enc(*solver, ctx.logical, ctx.g, ctx.dag);
  Lit active{-1};
  std::vector<Lit> assumptions;  // the in-flight probe's, for dump_cnf

  for (std::int32_t layers = ctx.lower; layers <= opts.max_layers; ++layers) {
    if (ctx.cancelled()) {
      result.cancelled = true;
      break;
    }
    if (ctx.deadline.expired()) {
      result.timed_out = true;
      break;
    }
    if (active.code != -1) enc.retire(active);
    enc.extend_to(layers);
    active = enc.gate_horizon(layers);
    assumptions = {active};
    const double remaining = ctx.deadline.remaining_seconds();
    if (remaining <= 0.0) {
      result.timed_out = true;
      break;
    }
    const Result r = solver->solve(assumptions, remaining, opts.cancel);
    if (r == Result::kTimeout) {
      if (ctx.cancelled()) {
        result.cancelled = true;
      } else {
        result.timed_out = true;
      }
      break;
    }
    if (r == Result::kUnsat) continue;

    Extracted best = extract(*solver, enc, ctx.logical, ctx.g, layers);
    result.solved = true;
    result.layers = layers;

    if (opts.minimize_swaps && best.swaps > 0) {
      // SAT-UNSAT descent: probe one SWAP below the best model, jump to
      // each new model's count, and stop at the first refutation — a run
      // pays for exactly one UNSAT proof, the expensive kind of probe.
      //
      // A counter at the found horizon, wide enough for the first model's
      // SWAP count; every budget probe below is then a handful of
      // assumptions. When the best count drops far below the current width
      // (models often shed many SWAPs per probe), re-encode a narrower
      // counter over the same cached move indicators — the wide one's
      // registers are dead weight the solver would otherwise branch on. The
      // narrow width always covers the best count, so the next probe stays
      // expressible.
      std::int32_t width = static_cast<std::int32_t>(best.swaps);
      std::vector<Lit> at_least = enc.swap_outputs(layers, width);
      while (best.swaps > 0 && !ctx.deadline.expired() && !ctx.cancelled()) {
        const auto budget = static_cast<std::int32_t>(best.swaps - 1);
        if (2 * best.swaps <= width) {
          width = static_cast<std::int32_t>(best.swaps);
          at_least = enc.swap_outputs(layers, width);
        }
        // Assume the whole upper output chain false, not just ~s_budget:
        // "at most b" makes every higher register gratuitous (the counter
        // is one-directional, so a model never needs them true), and
        // pinning them keeps the solver from branching on dead counters.
        assumptions = {active};
        for (std::int32_t j = budget; j < width; ++j) {
          assumptions.push_back(~at_least[j]);
        }
        // Measured after any counter re-encode so its cost stays inside the
        // budget; solve() treats non-positive budgets as unlimited.
        const double rem2 = ctx.deadline.remaining_seconds();
        if (ctx.deadline.expired() || rem2 <= 0.0) {
          break;  // keep the depth-minimal schedule found
        }
        // kUnsat proves `best` optimal; timeout/cancel keeps it as found.
        if (solver->solve(assumptions, rem2, opts.cancel) != Result::kSat) {
          break;
        }
        best = extract(*solver, enc, ctx.logical, ctx.g, layers);
      }
    }
    result.mapped = std::move(best.mapped);
    result.swaps = best.swaps;
    break;
  }
  result.stats = solver->stats();
  result.winner = solver_winner(*solver);
  if (!opts.dump_cnf_path.empty() &&
      !solver->dump_dimacs(opts.dump_cnf_path, assumptions)) {
    std::fprintf(stderr, "satmap: cannot write CNF dump to '%s'\n",
                 opts.dump_cnf_path.c_str());
  }
}

}  // namespace

SatmapResult satmap_route(const Circuit& logical, const CouplingGraph& g,
                          const SatmapOptions& opts) {
  require(logical.num_qubits() <= g.num_qubits(),
          "satmap: more logical than physical qubits");
  WallTimer timer;
  Deadline deadline(opts.time_budget_seconds);
  SatmapResult result;

  // Depth lower bound: critical path of the strict DAG.
  const Dag dag = build_strict_dag(logical);
  std::vector<std::int32_t> cp(dag.size(), 1);
  const auto topo = dag.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    for (auto succ : dag.succ[*it]) cp[*it] = std::max(cp[*it], cp[succ] + 1);
  }
  std::int32_t lower = 1;
  for (auto c : cp) lower = std::max(lower, c);

  SearchContext ctx{logical, g, dag, opts, lower, deadline};
  if (opts.incremental) {
    route_incremental(ctx, result);
  } else {
    route_monolithic(ctx, result);
  }
  if (!result.solved && !result.timed_out && !result.cancelled) {
    result.timed_out = true;
  }
  result.seconds = timer.seconds();
  if (opts.stats_out != nullptr) *opts.stats_out = result.stats;
  if (opts.winner_out != nullptr) *opts.winner_out = result.winner;
  return result;
}

}  // namespace qfto
