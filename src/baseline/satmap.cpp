#include "baseline/satmap.hpp"

#include <cstdio>
#include <memory>
#include <utility>

#include "baseline/satmap_encoder.hpp"
#include "circuit/dag.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace qfto {

using sat::Lit;
using sat::Result;
using satmap_detail::Encoder;
using satmap_detail::Extracted;
using satmap_detail::extract;

SatmapResult satmap_route(const Circuit& logical, const CouplingGraph& g,
                          const SatmapOptions& opts) {
  require(logical.num_qubits() <= g.num_qubits(),
          "satmap: more logical than physical qubits");
  WallTimer timer;
  Deadline deadline(opts.time_budget_seconds);
  const auto cancelled = [&opts] {
    return opts.cancel != nullptr &&
           opts.cancel->load(std::memory_order_relaxed);
  };
  SatmapResult result;

  const Dag dag = build_strict_dag(logical);
  const std::unique_ptr<sat::SolverInterface> solver =
      sat::make_solver(opts.solver);
  Encoder enc(*solver, logical, g, dag);
  Lit active{-1};
  std::vector<Lit> assumptions;  // the in-flight probe's, for dump_cnf

  // Running out of layers leaves solved, timed_out and cancelled all false:
  // the "no schedule within the layer bound" outcome.
  for (std::int32_t layers = satmap_detail::depth_lower_bound(dag);
       layers <= opts.max_layers; ++layers) {
    if (cancelled()) {
      result.cancelled = true;
      break;
    }
    if (deadline.expired()) {
      result.timed_out = true;
      break;
    }
    if (active.code != -1) enc.retire(active);
    enc.extend_to(layers);
    active = enc.gate_horizon(layers);
    assumptions = {active};
    const double remaining = deadline.remaining_seconds();
    if (remaining <= 0.0) {
      result.timed_out = true;
      break;
    }
    const Result r = solver->solve(assumptions, remaining, opts.cancel);
    if (r == Result::kTimeout) {
      // The solver reports kTimeout for both outcomes; the flag says which.
      if (cancelled()) {
        result.cancelled = true;
      } else {
        result.timed_out = true;
      }
      break;
    }
    if (r == Result::kUnsat) continue;

    Extracted best = extract(*solver, enc, logical, g, layers);
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
      while (best.swaps > 0 && !deadline.expired() && !cancelled()) {
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
        const double rem2 = deadline.remaining_seconds();
        if (deadline.expired() || rem2 <= 0.0) {
          break;  // keep the depth-minimal schedule found
        }
        // kUnsat proves `best` optimal; timeout/cancel keeps it as found.
        if (solver->solve(assumptions, rem2, opts.cancel) != Result::kSat) {
          break;
        }
        best = extract(*solver, enc, logical, g, layers);
      }
    }
    result.mapped = std::move(best.mapped);
    result.swaps = best.swaps;
    break;
  }
  result.stats = solver->stats();
  if (!opts.dump_cnf_path.empty() &&
      !solver->dump_dimacs(opts.dump_cnf_path, assumptions)) {
    std::fprintf(stderr, "satmap: cannot write CNF dump to '%s'\n",
                 opts.dump_cnf_path.c_str());
  }
  result.seconds = timer.seconds();
  if (opts.stats_out != nullptr) *opts.stats_out = result.stats;
  return result;
}

}  // namespace qfto
