// Checker/scheduler throughput on mapped QFT circuits: the verifier the
// routed engines are judged by, and the scheduler every depth figure uses.
//
// Families, each on QFT-{64,256,1024,2048} x {lnn, heavy_hex, sycamore,
// lattice}:
//   verify_incremental — the streaming IncrementalQftChecker fused pass
//                        (check_qft_mapping).
//   schedule_model     — schedule_asap devirtualized through LatencyModel.
// plus map_fused (map + fused emit audit through the pipeline) on lattice at
// device scale, which also reports the result's store bytes per gate.
//
// Throughput is reported as items/sec where an item is one gate.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "arch/latency_model.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "verify/qft_checker.hpp"

namespace {

using namespace qfto;

// --------------------------------------------------------- cached cases --

struct Case {
  MapResult result;
  LatencyModel model;  // bound to result.graph
  std::int64_t gates = 0;
};

Case& get_case(const std::string& engine, int n) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<Case>> cache;
  std::lock_guard<std::mutex> lock(mu);
  const std::string key = engine + "/" + std::to_string(n);
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;

  auto c = std::make_unique<Case>();
  MapOptions opts;
  opts.verify = false;  // mapping setup only; verification is the benchmark
  c->result = MapperPipeline::global().run(engine, n, opts);
  c->model = MapperPipeline::global().at(engine).latency_model(c->result.graph);
  c->gates = static_cast<std::int64_t>(c->result.mapped.circuit.size());

  // Sanity: a benchmark must never time an invalid mapping.
  const auto chk =
      check_qft_mapping(c->result.mapped, c->result.graph, c->model);
  if (!chk.ok) {
    std::fprintf(stderr, "BENCH ABORT — invalid %s mapping: %s\n",
                 engine.c_str(), chk.error.c_str());
    std::abort();
  }
  return *cache.emplace(key, std::move(c)).first->second;
}

// ------------------------------------------------------------ benchmarks --

void BM_VerifyIncremental(benchmark::State& state, const std::string& engine,
                          int n) {
  Case& c = get_case(engine, n);
  for (auto _ : state) {
    const auto r =
        check_qft_mapping(c.result.mapped, c.result.graph, c.model);
    if (!r.ok) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r.depth);
  }
  state.SetItemsProcessed(state.iterations() * c.gates);
}

void BM_ScheduleModel(benchmark::State& state, const std::string& engine,
                      int n) {
  Case& c = get_case(engine, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        schedule_asap(c.result.mapped.circuit, c.model).depth);
  }
  state.SetItemsProcessed(state.iterations() * c.gates);
}

// Device-scale end-to-end: map + fused verify through the pipeline (the path
// the scale smoke asserts interactive). Unlike the families above, there is
// no cached circuit — each iteration pays emission, page faults and the fused
// audit, exactly as a fresh `map_qft` call does. items = gates produced.
//
// store_bytes_per_gate is the result's gate store (Circuit::store_bytes) over
// its gate count: a function of the code, not the machine, pinned in
// bench/ledger/BENCH_checker_counters.json.
void BM_MapFused(benchmark::State& state, const std::string& engine, int n) {
  std::int64_t gates = 0;
  double store_bytes_per_gate = 0.0;
  for (auto _ : state) {
    const MapResult r = MapperPipeline::global().run(engine, n, MapOptions{});
    if (!r.check.ok) state.SkipWithError(r.check.error.c_str());
    gates = r.check.counts.total();
    store_bytes_per_gate =
        static_cast<double>(r.mapped.circuit.store_bytes()) /
        static_cast<double>(r.mapped.circuit.size());
    benchmark::DoNotOptimize(r.check.depth);
  }
  state.SetItemsProcessed(state.iterations() * gates);
  state.counters["store_bytes_per_gate"] = store_bytes_per_gate;
}

const int register_all = [] {
  using Fn = void (*)(benchmark::State&, const std::string&, int);
  const std::pair<const char*, Fn> families[] = {
      {"verify_incremental", BM_VerifyIncremental},
      {"schedule_model", BM_ScheduleModel},
  };
  auto add = [](const std::string& name, Fn fn, const std::string& engine,
                int n) {
    benchmark::RegisterBenchmark(
        name.c_str(),
        [fn, engine, n](benchmark::State& st) { fn(st, engine, n); })
        ->Unit(benchmark::kMillisecond);
  };
  for (const auto& [family, fn] : families) {
    for (const char* engine : {"lnn", "heavy_hex", "sycamore", "lattice"}) {
      for (const int n : {64, 256, 1024, 2048}) {
        add(std::string(family) + "/" + engine + "/n" + std::to_string(n), fn,
            engine, n);
      }
    }
  }
  // Device-scale additions on the lattice-surgery target only: past 2048
  // the streaming checker, the scheduler and the end-to-end fused path.
  for (const int n : {4096, 8192}) {
    add("verify_incremental/lattice/n" + std::to_string(n),
        BM_VerifyIncremental, "lattice", n);
    add("schedule_model/lattice/n" + std::to_string(n), BM_ScheduleModel,
        "lattice", n);
  }
  for (const int n : {1024, 4096, 8192}) {
    add("map_fused/lattice/n" + std::to_string(n), BM_MapFused, "lattice", n);
  }
  return 0;
}();

}  // namespace
