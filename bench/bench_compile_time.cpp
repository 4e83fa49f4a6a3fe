// Compilation-time scaling (§7.1.1 / §7.3): our mappers are analytical —
// compile time is the time to *write out* the linear-size-in-gates circuit —
// versus SABRE whose per-instance routing time grows quickly. google-benchmark
// timings; one benchmark per backend plus SABRE reference points.
#include <benchmark/benchmark.h>

#include "arch/heavy_hex.hpp"
#include "arch/lattice_surgery.hpp"
#include "arch/sycamore.hpp"
#include "baseline/sabre.hpp"
#include "circuit/qft_spec.hpp"
#include "mapper/heavy_hex_mapper.hpp"
#include "mapper/lattice_mapper.hpp"
#include "mapper/lnn_mapper.hpp"
#include "mapper/sycamore_mapper.hpp"
#include "pipeline/mapper_pipeline.hpp"

namespace {

using namespace qfto;

// Gates written per second of mapping. Engines differ in depth and SWAP
// count, so this (not wall time) is what compares their emitters.
void set_gate_rate(benchmark::State& state, std::size_t gates) {
  state.counters["gates_per_s"] =
      benchmark::Counter(static_cast<double>(gates),
                         benchmark::Counter::kIsIterationInvariantRate);
}

void BM_MapLnn(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  std::size_t gates = 0;
  for (auto _ : state) {
    const MappedCircuit mc = map_qft_lnn(n);
    benchmark::DoNotOptimize(mc);
    gates = mc.circuit.size();
  }
  state.counters["qubits"] = n;
  set_gate_rate(state, gates);
}
BENCHMARK(BM_MapLnn)->Arg(64)->Arg(256)->Arg(1024);

// N = 1000 sits next to BM_MapLnn/1024 for per-gate parity.
void BM_MapHeavyHex(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  std::size_t gates = 0;
  for (auto _ : state) {
    const MappedCircuit mc = map_qft_heavy_hex(n);
    benchmark::DoNotOptimize(mc);
    gates = mc.circuit.size();
  }
  state.counters["qubits"] = n;
  set_gate_rate(state, gates);
}
BENCHMARK(BM_MapHeavyHex)->Arg(50)->Arg(200)->Arg(1000);

// Full device of `rows` 13-qubit rows (N = 17·rows − 4): the reduction plus
// emission straight onto device ids. 59 rows is N = 999.
void BM_MapHeavyHexDevice(benchmark::State& state) {
  const HeavyHexDevice dev =
      make_heavy_hex_device(static_cast<std::int32_t>(state.range(0)), 13);
  std::size_t gates = 0;
  for (auto _ : state) {
    const MappedCircuit mc = map_qft_heavy_hex_device(dev);
    benchmark::DoNotOptimize(mc);
    gates = mc.circuit.size();
  }
  state.counters["qubits"] = dev.graph.num_qubits();
  set_gate_rate(state, gates);
}
BENCHMARK(BM_MapHeavyHexDevice)->Arg(3)->Arg(12)->Arg(59);

void BM_MapSycamore(benchmark::State& state) {
  const std::int32_t m = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(map_qft_sycamore(m));
  }
  state.counters["qubits"] = m * m;
}
BENCHMARK(BM_MapSycamore)->Arg(6)->Arg(16)->Arg(32);

void BM_MapLattice(benchmark::State& state) {
  const std::int32_t m = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(map_qft_lattice(m));
  }
  state.counters["qubits"] = m * m;
}
BENCHMARK(BM_MapLattice)->Arg(10)->Arg(20)->Arg(32);

// Facade overhead: the same lattice compile through MapperPipeline, with
// the graph build included and the checker off (map) or on (map+verify).
void BM_PipelineLatticeMap(benchmark::State& state) {
  const std::int32_t m = static_cast<std::int32_t>(state.range(0));
  MapOptions opts;
  opts.verify = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map_qft("lattice", m * m, opts));
  }
  state.counters["qubits"] = m * m;
}
BENCHMARK(BM_PipelineLatticeMap)->Arg(10)->Arg(20)->Arg(32);

void BM_PipelineLatticeMapVerify(benchmark::State& state) {
  const std::int32_t m = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(map_qft("lattice", m * m));
  }
  state.counters["qubits"] = m * m;
}
BENCHMARK(BM_PipelineLatticeMapVerify)->Arg(10)->Arg(20)->Arg(32);

void BM_SabreRoute(benchmark::State& state) {
  const std::int32_t m = static_cast<std::int32_t>(state.range(0));
  const CouplingGraph g = make_lattice_surgery_full(m);
  const Circuit qft = qft_logical(m * m);
  SabreOptions opts;
  opts.trials = 1;
  opts.bidirectional_passes = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sabre_route(qft, g, opts));
  }
  state.counters["qubits"] = m * m;
}
BENCHMARK(BM_SabreRoute)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace
