#include "support/satmap_reference.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "baseline/satmap_encoder.hpp"
#include "circuit/dag.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "sat/cardinality.hpp"

namespace qfto {

using sat::Lit;
using sat::Result;
using satmap_detail::Encoder;
using satmap_detail::Extracted;
using satmap_detail::extract;

SatmapResult satmap_route_reference(const Circuit& logical,
                                    const CouplingGraph& g,
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

  // A negative swap_budget leaves the SWAP count free. The time budget can
  // run out during the re-encode, and solve() treats a non-positive budget
  // as unlimited, so an exhausted one comes back as kTimeout unsolved.
  const auto probe = [&](std::int32_t layers, std::int32_t swap_budget) {
    const std::unique_ptr<sat::SolverInterface> solver =
        sat::make_solver(opts.solver);
    Encoder enc(*solver, logical, g, dag);
    enc.extend_to(layers);
    for (std::size_t i = 0; i < logical.size(); ++i) {
      std::vector<Lit> times;
      for (std::int32_t t = 0; t <= layers; ++t) {
        times.push_back(
            Lit::pos(enc.exec_var(t, static_cast<std::int32_t>(i))));
      }
      solver->add_clause(times);
    }
    if (swap_budget >= 0) {
      sat::add_at_most_k(*solver, enc.movers(layers), swap_budget);
    }
    const double remaining = deadline.remaining_seconds();
    const Result r = deadline.expired()
                         ? Result::kTimeout
                         : solver->solve({}, remaining, opts.cancel);
    result.stats += solver->stats();
    return std::make_pair(r, r == Result::kSat
                                 ? extract(*solver, enc, logical, g, layers)
                                 : Extracted{});
  };

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
    auto [r, best] = probe(layers, -1);
    if (r == Result::kTimeout) {
      if (cancelled()) {
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
      while (best.swaps > 0 && !deadline.expired() && !cancelled()) {
        auto [r2, tighter] =
            probe(layers, static_cast<std::int32_t>(best.swaps - 1));
        if (r2 != Result::kSat) break;  // keep the depth-minimal schedule
        best = std::move(tighter);
      }
    }
    result.mapped = std::move(best.mapped);
    result.swaps = best.swaps;
    break;
  }
  result.seconds = timer.seconds();
  if (opts.stats_out != nullptr) *opts.stats_out = result.stats;
  return result;
}

}  // namespace qfto
