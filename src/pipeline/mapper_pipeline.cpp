#include "pipeline/mapper_pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "arch/device_model.hpp"
#include "circuit/qft_spec.hpp"
#include "common/timer.hpp"
#include "verify/circuit_checker.hpp"
#include "verify/fidelity.hpp"

namespace qfto {

MappedCircuit MapperEngine::map(std::int32_t n, const CouplingGraph& g,
                                const MapOptions& opts) const {
  return map_circuit(qft_logical(n), g, opts);
}

MappedCircuit MapperEngine::map_circuit(const Circuit& logical,
                                        const CouplingGraph& g,
                                        const MapOptions& opts) const {
  SabreOptions sopts = opts.sabre;
  if (opts.objective == Objective::kFidelity) {
    sopts.fidelity_objective = true;
    sopts.device = opts.device.get();
  }
  return sabre_route(logical, g, sopts);
}

void MapperPipeline::register_engine(
    std::unique_ptr<const MapperEngine> engine) {
  require(engine != nullptr, "MapperPipeline: null engine");
  const std::string key = engine->name();
  require(!key.empty(), "MapperPipeline: engine with empty name");
  engines_[key] = std::move(engine);
}

std::vector<std::string> MapperPipeline::engine_names() const {
  std::vector<std::string> names;
  names.reserve(engines_.size());
  for (const auto& [key, engine] : engines_) names.push_back(key);
  return names;  // std::map iteration order is already sorted
}

bool MapperPipeline::has(const std::string& name) const {
  return engines_.count(name) != 0;
}

const MapperEngine* MapperPipeline::find(const std::string& name) const {
  const auto it = engines_.find(name);
  return it == engines_.end() ? nullptr : it->second.get();
}

const MapperEngine& MapperPipeline::at(const std::string& name) const {
  const MapperEngine* engine = find(name);
  if (engine == nullptr) {
    std::string known;
    for (const auto& key : engine_names()) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw std::invalid_argument("MapperPipeline: unknown engine '" + name +
                                "' (known: " + known + ")");
  }
  return *engine;
}

namespace {

/// Serving checks shared by both entry points: between stages the run
/// honours the cooperative cancel token and the per-run deadline. Analytical
/// engines finish a stage in microseconds-to-milliseconds, so stage
/// granularity bounds cancel latency; SATMAP additionally polls the token
/// mid-solve.
class LiveGuard {
 public:
  explicit LiveGuard(const MapOptions& opts)
      : opts_(opts), deadline_(opts.deadline_seconds) {}

  void ensure(const char* stage) const {
    if (opts_.cancel != nullptr &&
        opts_.cancel->load(std::memory_order_relaxed)) {
      throw MapCancelled(false, std::string("cancelled before ") + stage);
    }
    if (opts_.deadline_seconds > 0.0 && deadline_.expired()) {
      throw MapCancelled(true,
                         std::string("deadline exceeded before ") + stage);
    }
  }

 private:
  const MapOptions& opts_;
  Deadline deadline_;
};

/// Runs the map stage with the SAT and SABRE stats sinks installed so the
/// routed engines report their effort into MapResult::timings; a caller-
/// supplied sink still gets the numbers — also on engine failure (a TLE'd
/// SATMAP run throws after recording real counters, the primary diagnostic
/// use of the sink).
template <typename MapFn>
void timed_map_stage(MapResult& result, const MapOptions& opts,
                     MapFn&& map_fn) {
  WallTimer timer;
  MapOptions map_opts = opts;
  map_opts.satmap.stats_out = &result.timings.sat;
  map_opts.sabre.stats_out = &result.timings.sabre;
  const auto copy_back_stats = [&]() {
    if (opts.satmap.stats_out != nullptr) {
      *opts.satmap.stats_out = result.timings.sat;
    }
    if (opts.sabre.stats_out != nullptr) {
      *opts.sabre.stats_out = result.timings.sabre;
    }
  };
  try {
    result.mapped = map_fn(map_opts);
  } catch (...) {
    copy_back_stats();
    throw;
  }
  copy_back_stats();
  result.timings.map_seconds = timer.seconds();
}

/// Pipeline-entry validation of MapOptions::device against the engine.
void check_device(const MapperEngine& engine, const MapOptions& opts) {
  if (opts.device == nullptr) return;
  require(opts.target == nullptr,
          "MapperPipeline: device and target are mutually exclusive");
  require(engine.accepts_device(),
          "MapperPipeline: engine '" + engine.name() +
              "' owns its topology and does not accept a device model "
              "(routed engines do: sabre, satmap)");
}

/// Verification charges the device's calibration table when the run carries
/// one; the engine's native model otherwise.
LatencyModel resolved_latency(const MapperEngine& engine,
                              const MapOptions& opts, const CouplingGraph& g) {
  return opts.device != nullptr ? opts.device->latency_model(g)
                                : engine.latency_model(g);
}

/// Fills MapResult::log10_fidelity once the check passed: the per-edge
/// calibrated walk under a device, the closed-form NoiseModel estimate over
/// the checker's already-computed counts and depth otherwise.
void fill_fidelity(MapResult& result, const MapOptions& opts) {
  if (!result.check.ok) return;
  result.log10_fidelity =
      opts.device != nullptr
          ? log10_fidelity(result.mapped.circuit, *opts.device,
                           opts.device->latency_model(result.graph))
          : log10_fidelity(result.check.counts, result.check.depth,
                           NoiseModel{});
}

}  // namespace

MapResult MapperPipeline::run(const std::string& engine_name, std::int32_t n,
                              const MapOptions& opts) const {
  return run_qft(engine_name, n, opts, /*store_gates=*/true);
}

MapSummary MapperPipeline::summarize(const std::string& engine_name,
                                     std::int32_t n,
                                     const MapOptions& opts) const {
  // The calibrated fidelity walk reads the gates, so a device run keeps them.
  return run_qft(engine_name, n, opts,
                 /*store_gates=*/opts.device != nullptr)
      .summary();
}

MapResult MapperPipeline::run_qft(const std::string& engine_name,
                                  std::int32_t n, const MapOptions& opts,
                                  bool store_gates) const {
  require(n >= 1, "MapperPipeline::run: n >= 1");
  // Sane ceiling: keeps native-size arithmetic (rounding up to squares /
  // multiples of five) comfortably inside int32 on hostile CLI input.
  require(n <= 16'777'216, "MapperPipeline::run: n too large");
  const MapperEngine& engine = at(engine_name);
  check_device(engine, opts);
  const LiveGuard live(opts);

  MapResult result;
  result.engine = engine.name();
  result.requested_n = n;
  result.n = engine.native_size(n);
  live.ensure("graph build");
  result.graph = engine.build_graph(result.n, opts);
  result.physical = result.graph.num_qubits();
  live.ensure("map");

  // With verify on, the engine gets an audit sink so a structured emitter
  // verifies while it emits. Engines that bypass LayerEmitter (the routed
  // baselines) never engage it, and check_qft_mapping picks up the check.
  // Summary mode rides the same sink, so it is installed then too; with
  // verify off its verdict is dropped.
  verify::EmitAudit audit;
  audit.store_gates = store_gates;
  const bool audited = opts.verify || !store_gates;
  if (audited) audit.model = resolved_latency(engine, opts, result.graph);

  timed_map_stage(result, opts, [&](MapOptions map_opts) {
    if (audited) map_opts.audit = &audit;
    return engine.map(result.n, result.graph, map_opts);
  });
  live.ensure("verify");

  if (opts.verify) {
    if (audit.engaged) {
      // The verdict was computed gate-by-gate inside the map stage; there is
      // no separate pass to time.
      result.check = std::move(audit.result);
    } else {
      WallTimer timer;
      result.check =
          check_qft_mapping(result.mapped, result.graph, audit.model);
      result.timings.check_seconds = timer.seconds();
    }
    fill_fidelity(result, opts);
  }
  return result;
}

MapResult MapperPipeline::run_circuit(const std::string& engine_name,
                                      const Circuit& logical,
                                      const MapOptions& opts) const {
  const std::int32_t n = logical.num_qubits();
  require(n >= 1, "MapperPipeline::run_circuit: circuit has no qubits");
  require(n <= 16'777'216, "MapperPipeline::run_circuit: circuit too large");
  const MapperEngine& engine = at(engine_name);
  check_device(engine, opts);
  const LiveGuard live(opts);

  MapResult result;
  result.engine = engine.name();
  // A circuit is never resized: both size fields report its qubit count and
  // result.graph carries the (possibly snapped-larger) physical register.
  result.requested_n = n;
  result.n = n;
  live.ensure("graph build");
  result.graph = engine.build_graph(engine.native_size(n), opts);
  result.physical = result.graph.num_qubits();
  require(result.physical >= n,
          "MapperPipeline::run_circuit: engine graph smaller than the "
          "circuit");
  live.ensure("map");

  timed_map_stage(result, opts, [&](const MapOptions& map_opts) {
    return engine.map_circuit(logical, result.graph, map_opts);
  });
  live.ensure("verify");

  if (opts.verify) {
    WallTimer timer;
    // General inputs are matched gate-for-gate against the logical circuit
    // (only QFT requests can be judged against the QFT spec).
    result.check = check_circuit_mapping(result.mapped, logical, result.graph,
                                         resolved_latency(engine, opts,
                                                          result.graph));
    result.timings.check_seconds = timer.seconds();
    fill_fidelity(result, opts);
  }
  return result;
}

const MapperPipeline& MapperPipeline::global() {
  static const MapperPipeline pipeline = MapperPipeline::with_paper_engines();
  return pipeline;
}

MapResult map_qft(const std::string& arch, std::int32_t n,
                  const MapOptions& opts) {
  return MapperPipeline::global().run(arch, n, opts);
}

MapResult map_circuit(const std::string& arch, const Circuit& logical,
                      const MapOptions& opts) {
  return MapperPipeline::global().run_circuit(arch, logical, opts);
}

}  // namespace qfto
