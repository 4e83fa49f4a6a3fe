// SATMAP search-driver comparison: monolithic re-encode-per-probe vs the
// incremental single-instance driver (assumption-gated horizons, retained
// learnt clauses, assumption-tightened SWAP counter), on QFT-{4..8} x
// {line, 2xK grid}.
//
// A structural note the numbers only make sense with: for QFT (and every
// routing-pressure family we tried — mirrored pairings, hub chains, rings),
// the strict-DAG critical path is a *tight* horizon bound: the first
// deepening probe at T = lower is already SAT, so the T-deepening loop
// contributes exactly one probe and the iterated probe sequence of a SATMAP
// run is the SWAP-minimization descent at fixed T (budget = model swaps - 1
// until UNSAT proves the minimum). That descent is where the incremental
// driver's reuse pays: the monolithic baseline re-encodes the full
// time-expanded instance per budget probe and re-learns it from scratch,
// the incremental driver pays the encoding once and carries learnt clauses
// and saved phases through every probe.
//
// Families:
//   satmap_depth_probe/<arch>_<driver>/n — minimize_swaps off: encode + the
//       single depth-feasibility probe. Isolates encoding cost; both
//       drivers do the same solver work here.
//   satmap_route/<arch>_<driver>/n — the full production search (depth
//       probe + SWAP-minimization descent): the end-to-end comparison.
//
// Counters (per run): sat_conflicts, sat_decisions, sat_propagations,
// sat_clauses (database size, summed over probes on the monolithic path —
// the re-encode overhead made visible), solve_calls, solved/layers/swaps.
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
                          bool incremental, bool minimize) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const CouplingGraph g = arch_graph(kind, n);
  SatmapResult last;
  for (auto _ : state) {
    SatmapOptions opts;
    opts.incremental = incremental;
    opts.minimize_swaps = minimize;
    opts.time_budget_seconds = budget_seconds();
    last = satmap_route(qft_logical(n), g, opts);
  }
  report(state, last);
  return last;
}

void satmap_depth_probe(benchmark::State& state, const char* kind,
                        bool incremental) {
  satmap_bench(state, kind, incremental, /*minimize=*/false);
}

// items = solve() calls, so items_per_second is probe throughput of the
// single-lane solver, the series the perf-trend guard watches next to the
// portfolio family; sat_props_per_s is the solver's propagation rate.
void satmap_route_full(benchmark::State& state, const char* kind,
                       bool incremental) {
  const SatmapResult r =
      satmap_bench(state, kind, incremental, /*minimize=*/true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          r.stats.solve_calls);
  state.counters["sat_props_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(r.stats.propagations),
      benchmark::Counter::kIsRate);
}

#define QFTO_SAT_BENCH(fn, arch, range_lo, range_hi)                     \
  BENCHMARK_CAPTURE(fn, arch##_monolithic, #arch, false)                 \
      ->DenseRange(range_lo, range_hi)                                   \
      ->Iterations(1)                                                    \
      ->Unit(benchmark::kMillisecond)                                    \
      ->UseRealTime();                                                   \
  BENCHMARK_CAPTURE(fn, arch##_incremental, #arch, true)                 \
      ->DenseRange(range_lo, range_hi)                                   \
      ->Iterations(1)                                                    \
      ->Unit(benchmark::kMillisecond)                                    \
      ->UseRealTime();

QFTO_SAT_BENCH(satmap_depth_probe, line, 4, 8)
QFTO_SAT_BENCH(satmap_depth_probe, grid, 4, 8)
QFTO_SAT_BENCH(satmap_route_full, line, 4, 8)
QFTO_SAT_BENCH(satmap_route_full, grid, 4, 6)

#undef QFTO_SAT_BENCH

// Portfolio racing family: the full production search decided by L
// diversified cdcl lanes (L=1 is the bare incremental driver — the baseline
// the +<10% wall-clock acceptance bar compares against). items = portfolio-
// level probes, so items_per_second is probe throughput: the series the
// perf-trend guard watches (satmap_portfolio_ prefix, loose threshold — a
// single SAT search is noisy).
void satmap_portfolio(benchmark::State& state, const char* kind,
                      std::int32_t lanes) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const CouplingGraph g = arch_graph(kind, n);
  SatmapResult last;
  for (auto _ : state) {
    SatmapOptions opts;
    opts.time_budget_seconds = budget_seconds();
    opts.portfolio = lanes > 1;
    opts.lanes = lanes;
    last = satmap_route(qft_logical(n), g, opts);
  }
  report(state, last);
  state.counters["lanes"] = static_cast<double>(lanes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          last.stats.solve_calls);
}

// Grid stops at 6 for the same reason satmap_route_full does: QFT-8 on the
// 2x4 grid is TLE territory at the CI budget, and a budget-truncated SWAP
// descent guards nothing stable.
#define QFTO_SAT_PORTFOLIO_BENCH(arch, lanes, lo, hi)                    \
  BENCHMARK_CAPTURE(satmap_portfolio, arch##_lanes##lanes, #arch, lanes) \
      ->DenseRange(lo, hi, 2)                                            \
      ->Iterations(1)                                                    \
      ->Unit(benchmark::kMillisecond)                                    \
      ->UseRealTime();

QFTO_SAT_PORTFOLIO_BENCH(line, 1, 6, 8)
QFTO_SAT_PORTFOLIO_BENCH(line, 2, 6, 8)
QFTO_SAT_PORTFOLIO_BENCH(line, 4, 6, 8)
QFTO_SAT_PORTFOLIO_BENCH(grid, 1, 6, 6)
QFTO_SAT_PORTFOLIO_BENCH(grid, 2, 6, 6)
QFTO_SAT_PORTFOLIO_BENCH(grid, 4, 6, 6)

#undef QFTO_SAT_PORTFOLIO_BENCH

}  // namespace
