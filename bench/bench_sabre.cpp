// SABRE routing + DistanceOracle throughput at device scale — the router
// path the oracle redesign targets. Before the redesign, routing a handful
// of gates on an 8192-node target paid the full O(n²) distance matrix (256MB
// and seconds of BFS) before the first swap was scored; now the router
// touches only the rows its frontier pins.
//
// Families:
//   route_sparse/<topo>/nN — SABRE-route a K=32-gate random CX circuit on an
//                            N-node grid / full lattice-surgery graph (one
//                            trial, fixed seed). items = gates routed.
//   route_qft/line/n96     — QFT-96 on the 96-node line at the default five
//                            trials and seed: every blocked step scores its
//                            candidates, so this is the scoring path's
//                            throughput. items = logical gates routed.
//   route_circuit/grid/n100 — a seeded 700-CX random circuit (with H/RZ
//                            between the CXs) on the 10x10 grid, default
//                            options. items = logical gates routed.
//   route_qft/heavy_hex_device/n64 — QFT-64 on the builtin heavy-hex-65
//                            device under the fidelity objective (generic
//                            BFS rows, every trial routed plain and
//                            steered), default trials. items = logical
//                            gates routed.
//   The route_* families also report SabreStats per route: passes,
//   blocked_steps, rebuilt_steps (blocked steps that start a pass or
//   follow an executed gate: the step state is patched for the gates that
//   left or joined the front and the extended set), deltas_computed
//   (candidate deltas priced; a cached delta is reused until a patch
//   touches one of its qubits) and swaps.
//   These counters are deterministic; bench/ledger/BENCH_sabre_counters.json
//   pins them for the route_qft and route_circuit families (see
//   scripts/perf_trend_guard.py).
//   oracle_query/<topo>/nN — random-pair distance queries through the
//                            oracle's closed forms. items = queries.
//   oracle_rows/<topo>/nN  — full row materialization (what DistView pins
//                            per frontier node). items = row entries.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "arch/device_model.hpp"
#include "arch/grid.hpp"
#include "arch/lattice_surgery.hpp"
#include "arch/line.hpp"
#include "baseline/sabre.hpp"
#include "circuit/qft_spec.hpp"
#include "common/prng.hpp"

namespace {

using namespace qfto;

std::int32_t side_for(int n) {
  std::int32_t m = 1;
  while (static_cast<std::int64_t>(m) * m < n) ++m;
  return m;
}

CouplingGraph build_topo(const std::string& topo, int n) {
  const std::int32_t m = side_for(n);
  if (topo == "grid") return make_grid(m, m);
  return make_lattice_surgery_full(m);
}

struct Case {
  CouplingGraph graph;
  Circuit logical;

  Case(const std::string& topo, int n)
      : graph(build_topo(topo, n)), logical(graph.num_qubits()) {
    // K random CX gates over the whole register: a sparse workload whose
    // routing cost is frontier-sized, not register-sized.
    Xoshiro256ss rng(0x5abe + n);
    const std::int32_t q = graph.num_qubits();
    for (int k = 0; k < 32; ++k) {
      const auto a = static_cast<std::int32_t>(rng.uniform(q));
      std::int32_t b = a;
      while (b == a) b = static_cast<std::int32_t>(rng.uniform(q));
      logical.append(Gate::cnot(a, b));
    }
  }
};

Case& get_case(const std::string& topo, int n) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<Case>> cache;
  std::lock_guard<std::mutex> lock(mu);
  const std::string key = topo + "/" + std::to_string(n);
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;
  return *cache.emplace(key, std::make_unique<Case>(topo, n)).first->second;
}

/// Routes `logical` on `g` once per iteration and reports the last route's
/// size and SabreStats. items = logical gates routed.
void route_loop(benchmark::State& state, const Circuit& logical,
                const CouplingGraph& g, SabreOptions opts) {
  SabreStats stats;
  opts.stats_out = &stats;
  std::int64_t emitted = 0;
  for (auto _ : state) {
    const MappedCircuit mc = sabre_route(logical, g, opts);
    emitted = static_cast<std::int64_t>(mc.circuit.size());
    benchmark::DoNotOptimize(mc.final_mapping.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(logical.size()));
  state.counters["hw_gates"] = static_cast<double>(emitted);
  state.counters["passes"] = static_cast<double>(stats.passes);
  state.counters["blocked_steps"] = static_cast<double>(stats.blocked_steps);
  state.counters["rebuilt_steps"] = static_cast<double>(stats.rebuilt_steps);
  state.counters["deltas_computed"] =
      static_cast<double>(stats.deltas_computed);
  state.counters["swaps"] = static_cast<double>(stats.swaps);
}

void BM_RouteSparse(benchmark::State& state, const std::string& topo, int n) {
  Case& c = get_case(topo, n);
  SabreOptions opts;
  opts.trials = 1;
  opts.seed = 0xfeed;
  route_loop(state, c.logical, c.graph, opts);
}

void BM_OracleQuery(benchmark::State& state, const std::string& topo, int n) {
  Case& c = get_case(topo, n);
  const DistanceOracle& oracle = c.graph.distances();
  Xoshiro256ss rng(0xd157);
  const std::int32_t q = c.graph.num_qubits();
  std::int64_t sum = 0;
  for (auto _ : state) {
    const auto a = static_cast<std::int32_t>(rng.uniform(q));
    const auto b = static_cast<std::int32_t>(rng.uniform(q));
    sum += oracle.distance(a, b);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}

void BM_OracleRows(benchmark::State& state, const std::string& topo, int n) {
  Case& c = get_case(topo, n);
  const DistanceOracle& oracle = c.graph.distances();
  Xoshiro256ss rng(0x505);
  const std::int32_t q = c.graph.num_qubits();
  for (auto _ : state) {
    const auto a = static_cast<std::int32_t>(rng.uniform(q));
    const DistanceOracle::RowPtr row = oracle.row(a);
    benchmark::DoNotOptimize(row->data());
  }
  state.SetItemsProcessed(state.iterations() * c.graph.num_qubits());
}

Circuit random_cx_circuit(std::int32_t n, std::int32_t cx,
                          std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  Circuit c(n);
  for (std::int32_t i = 0; i < cx; ++i) {
    const std::uint64_t kind = rng.uniform(4);
    const auto q = static_cast<std::int32_t>(rng.uniform(n));
    if (kind == 0) c.append(Gate::h(q));
    if (kind == 1) c.append(Gate::rz(q, 0.5));
    const auto a = static_cast<std::int32_t>(rng.uniform(n));
    auto b = static_cast<std::int32_t>(rng.uniform(n - 1));
    if (b >= a) ++b;
    c.append(Gate::cnot(a, b));
  }
  return c;
}

const int register_all = [] {
  using Fn = void (*)(benchmark::State&, const std::string&, int);
  const std::pair<const char*, Fn> families[] = {
      {"route_sparse", BM_RouteSparse},
      {"oracle_query", BM_OracleQuery},
      {"oracle_rows", BM_OracleRows},
  };
  for (const auto& [family, fn] : families) {
    for (const char* topo : {"grid", "lattice_full"}) {
      for (const int n : {1024, 4096, 8192}) {
        const std::string name = std::string(family) + "/" + topo + "/n" +
                                 std::to_string(n);
        const std::string topo_s = topo;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [fn, topo_s, n](benchmark::State& st) { fn(st, topo_s, n); })
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  // Dense routes run at the default five trials and seed 1.
  static const DeviceModel heavy_hex_device =
      DeviceModel::builtin("heavy_hex", 64);
  SabreOptions fidelity;
  fidelity.fidelity_objective = true;
  fidelity.device = &heavy_hex_device;
  struct Dense {
    const char* name;
    Circuit logical;
    CouplingGraph graph;
    SabreOptions opts;
  };
  static const Dense dense[] = {
      {"route_qft/line/n96", qft_logical(96), make_line(96), {}},
      {"route_circuit/grid/n100", random_cx_circuit(100, 700, 0x5abe700),
       make_grid(10, 10), {}},
      {"route_qft/heavy_hex_device/n64", qft_logical(64),
       heavy_hex_device.build_graph(), fidelity},
  };
  for (const Dense& d : dense) {
    benchmark::RegisterBenchmark(d.name,
                                 [&d](benchmark::State& st) {
                                   route_loop(st, d.logical, d.graph, d.opts);
                                 })
        ->Unit(benchmark::kMillisecond);
  }
  return 0;
}();

}  // namespace
