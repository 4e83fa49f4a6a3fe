// SATMAP search benchmarks on QFT-{4..8} x {line, 2xK grid}: the one
// production driver (assumption-gated horizons, retained learnt clauses,
// assumption-tightened SWAP counter) on the in-tree cdcl backend.
//
// A structural note the numbers only make sense with: for QFT (and every
// routing-pressure family we tried — mirrored pairings, hub chains, rings),
// the strict-DAG critical path is a *tight* horizon bound: the first
// deepening probe at T = lower is already SAT, so the T-deepening loop
// contributes exactly one probe and the iterated probe sequence of a SATMAP
// run is the SWAP-minimization descent at fixed T (budget = model swaps - 1
// until UNSAT proves the minimum).
//
// Families (the `_incremental` suffix is kept so result files stay
// comparable with earlier runs of the same series):
//   satmap_depth_probe/<arch>_incremental/n — minimize_swaps off: encode +
//       the single depth-feasibility probe. Isolates encoding cost.
//   satmap_route_full/<arch>_incremental/n — the full production search
//       (depth probe + SWAP-minimization descent).
//
// Counters (per run): sat_conflicts, sat_decisions, sat_propagations,
// sat_clauses (database size), solve_calls, solved/layers/swaps.
// satmap_route_full also reports items (solve calls) and sat_props_per_s.
// Runs are pinned to Iterations(1): each iteration is a whole SAT search,
// and the counters, not single-shot wall time, are the stable signal.
//
// QFTO_BENCH_SAT_BUDGET (seconds, default 60) bounds every run; a TLE shows
// up as solved=0 rather than a hung CI leg.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "arch/grid.hpp"
#include "arch/line.hpp"
#include "baseline/satmap.hpp"
#include "circuit/qft_spec.hpp"

namespace {

using namespace qfto;

double budget_seconds() {
  const char* v = std::getenv("QFTO_BENCH_SAT_BUDGET");
  return v != nullptr ? std::atof(v) : 60.0;
}

CouplingGraph arch_graph(const std::string& kind, std::int32_t n) {
  if (kind == "line") return make_line(n);
  return make_grid(2, (n + 1) / 2);  // smallest 2xK grid holding n qubits
}

void report(benchmark::State& state, const SatmapResult& r) {
  state.counters["sat_conflicts"] = static_cast<double>(r.stats.conflicts);
  state.counters["sat_decisions"] = static_cast<double>(r.stats.decisions);
  state.counters["sat_propagations"] =
      static_cast<double>(r.stats.propagations);
  state.counters["sat_clauses"] = static_cast<double>(r.stats.clauses);
  state.counters["solve_calls"] = static_cast<double>(r.stats.solve_calls);
  state.counters["solved"] = r.solved ? 1.0 : 0.0;
  state.counters["layers"] = static_cast<double>(r.layers);
  state.counters["swaps"] = static_cast<double>(r.swaps);
}

SatmapResult satmap_bench(benchmark::State& state, const char* kind,
                          bool minimize) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const CouplingGraph g = arch_graph(kind, n);
  SatmapResult last;
  for (auto _ : state) {
    SatmapOptions opts;
    opts.minimize_swaps = minimize;
    opts.time_budget_seconds = budget_seconds();
    last = satmap_route(qft_logical(n), g, opts);
  }
  report(state, last);
  return last;
}

void satmap_depth_probe(benchmark::State& state, const char* kind) {
  satmap_bench(state, kind, /*minimize=*/false);
}

// items = solve() calls, so items_per_second is probe throughput, the
// series the perf-trend guard watches; sat_props_per_s is the solver's
// propagation rate.
void satmap_route_full(benchmark::State& state, const char* kind) {
  const SatmapResult r = satmap_bench(state, kind, /*minimize=*/true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          r.stats.solve_calls);
  state.counters["sat_props_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(r.stats.propagations),
      benchmark::Counter::kIsRate);
}

// Grid stops at 6 for the full search: QFT-8 on the 2x4 grid is TLE
// territory at the CI budget, and a budget-truncated SWAP descent guards
// nothing stable.
#define QFTO_SAT_BENCH(fn, arch, range_lo, range_hi)                     \
  BENCHMARK_CAPTURE(fn, arch##_incremental, #arch)                       \
      ->DenseRange(range_lo, range_hi)                                   \
      ->Iterations(1)                                                    \
      ->Unit(benchmark::kMillisecond)                                    \
      ->UseRealTime();

QFTO_SAT_BENCH(satmap_depth_probe, line, 4, 8)
QFTO_SAT_BENCH(satmap_depth_probe, grid, 4, 8)
QFTO_SAT_BENCH(satmap_route_full, line, 4, 8)
QFTO_SAT_BENCH(satmap_route_full, grid, 4, 6)

#undef QFTO_SAT_BENCH

}  // namespace
