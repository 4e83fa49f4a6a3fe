// Unified mapping pipeline: every QFT mapper and baseline in qfto behind one
// string-keyed facade, in the spirit of percy's interchangeable SAT engines.
//
//   MapResult r = map_qft("sycamore", 36);
//   r.mapped     — the hardware circuit + initial/final mappings
//   r.graph      — the native coupling graph the circuit targets
//   r.check      — static-checker verdict, depth (native latency) and counts
//   r.timings    — wall-clock split between mapping and verification
//
// MapperPipeline::summarize answers the same request with a MapSummary —
// sizes, verdict, fidelity and timings, no gates — which is all a serve
// response carries. The structured mappers then store no gate at all.
//
// Engines snap the requested size up to the nearest native size (e.g.
// `sycamore` maps n=30 on the m=6 grid, N=36) and report both numbers.
// Structured mappers own their topology; the routed baselines (`sabre`,
// `satmap`) route the logical QFT on a line by default and accept any
// target graph via MapOptions::target.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/coupling_graph.hpp"
#include "arch/latency_model.hpp"
#include "baseline/sabre.hpp"
#include "baseline/satmap.hpp"
#include "circuit/mapped_circuit.hpp"
#include "verify/qft_checker.hpp"
#include "verify/verifier.hpp"

namespace qfto {

class DeviceModel;

/// What the mapper optimizes for (MapOptions::objective). Depth is the
/// paper's metric and the default; fidelity scores candidate SWAPs by the
/// calibrated expected log-success (SABRE's fidelity-aware cost mode) and
/// picks the trial with the best log10_fidelity. Only the routed engines
/// honour it — structured mappers are analytical constructions.
enum class Objective : std::uint8_t {
  kDepth = 0,
  kFidelity = 1,
};

struct MapOptions {
  // Structured-mapper ablation knobs (§3.3 strict IE, §6 lattice variants).
  bool strict_ie = false;
  std::int32_t lattice_phase_offset = 1;
  bool transversal_unit_swap = true;

  // Routed-baseline knobs, forwarded verbatim.
  SabreOptions sabre;
  SatmapOptions satmap;

  /// Routed engines (`sabre`, `satmap`) run on this graph instead of their
  /// native line when set (§7.2 gives baselines the full link set). Must
  /// outlive the call. Structured mappers ignore it — they own their
  /// topology. Mutually exclusive with `device`.
  const CouplingGraph* target = nullptr;

  /// Calibrated device description (arch/device_model.hpp): routed engines
  /// build their coupling graph from it, verification charges its latency
  /// table, MapResult::log10_fidelity is computed against its error rates,
  /// and the ResultCache folds its content fingerprint into the key (so
  /// device-keyed results ARE cacheable, unlike raw `target` graphs).
  /// shared_ptr because queued service jobs outlive the request that parsed
  /// the device file. Engines that own their topology reject it.
  std::shared_ptr<const DeviceModel> device;

  /// Depth (default) or calibrated-fidelity routing; see Objective.
  Objective objective = Objective::kDepth;

  /// Verify the result and fill MapResult::check. On by default; turn off
  /// only for timing-only runs where verification is done elsewhere. The
  /// pipeline picks the verifier (see verify/verifier.hpp).
  bool verify = true;

  /// Fused-verification plumbing: the pipeline installs its EmitAudit here
  /// before calling MapperEngine::map, and the structured engines hand it to
  /// their LayerEmitter. Callers invoking engines directly may install their
  /// own; under the pipeline entry points leave it null.
  verify::EmitAudit* audit = nullptr;

  // ------------------------------------------------------- serving knobs --
  // Not part of the result-cache fingerprint: they shape how a run is
  // executed, never what it produces.

  /// Cooperative cancellation: when non-null and flipped true by another
  /// thread, the run aborts with MapCancelled — between pipeline stages for
  /// the analytical engines (graph build / map / verify), and mid-solve for
  /// SATMAP (the flag is forwarded into the CDCL search loop). Must outlive
  /// the call. The MappingService installs its per-job token here.
  const std::atomic<bool>* cancel = nullptr;

  /// Wall-clock budget for this run (<= 0: none). Checked between pipeline
  /// stages; SATMAP additionally clamps SatmapOptions::time_budget_seconds
  /// to the remaining budget so a deadlined job TLEs inside it. Expiry
  /// throws MapCancelled with deadline_expired() == true.
  double deadline_seconds = 0.0;
};

/// Thrown by MapperPipeline::run when MapOptions::cancel flips mid-run or
/// MapOptions::deadline_seconds is exhausted. The service layer maps it to
/// the job's terminal status (cancelled vs expired).
class MapCancelled : public std::runtime_error {
 public:
  MapCancelled(bool deadline_expired, const std::string& what)
      : std::runtime_error(what), deadline_expired_(deadline_expired) {}
  bool deadline_expired() const { return deadline_expired_; }

 private:
  bool deadline_expired_;
};

struct MapTimings {
  double map_seconds = 0.0;
  double check_seconds = 0.0;
  /// Cumulative SAT-solver effort (conflicts/decisions/restarts/...) when
  /// the engine ran a SAT search — zero-initialized (solve_calls == 0) for
  /// the analytical engines. A cache hit reports zeros for every field here
  /// (JobResult::timings()): no work was done.
  sat::SolverStats sat;
  /// SABRE's work counters when the engine routed with SABRE (passes == 0
  /// otherwise).
  SabreStats sabre;
  double total_seconds() const { return map_seconds + check_seconds; }
};

/// What a run found, without the circuit: a few hundred bytes at any n.
/// This is what the MappingService serves and its ResultCache holds.
struct MapSummary {
  std::string engine;
  std::int32_t requested_n = 0;  // size the caller asked for
  std::int32_t n = 0;            // engine-native size actually mapped
  std::int32_t physical = 0;     // qubits of the coupling graph
  QftCheckResult check;          // empty unless MapOptions::verify
  MapTimings timings;
  /// log10 of the estimated success probability (verify/fidelity.hpp),
  /// filled whenever verification passed: per-edge calibrated when the run
  /// carried a DeviceModel, the closed-form NoiseModel estimate otherwise.
  /// Always <= 0; higher is better.
  double log10_fidelity = 0.0;
};

/// A full run: the summary plus the hardware circuit and its graph
/// (`physical` == graph.num_qubits()).
struct MapResult : MapSummary {
  MappedCircuit mapped;
  CouplingGraph graph;  // coupling graph `mapped` is valid on

  MapSummary summary() const { return *this; }
};

/// One mapping engine behind the facade. Implementations are stateless and
/// callable concurrently.
class MapperEngine {
 public:
  virtual ~MapperEngine() = default;

  /// Registry key (`lnn`, `heavy_hex`, `sycamore`, `lattice`, `sabre`,
  /// `satmap`, `lnn_baseline`).
  virtual std::string name() const = 0;

  /// One-line human description for `--list-engines` style output.
  virtual std::string description() const = 0;

  /// True when identical (native n, MapOptions) requests produce identical
  /// results — the precondition for serving this engine from the
  /// ResultCache. The analytical mappers and seeded SABRE qualify; SATMAP
  /// does not (its TLE-vs-solved outcome depends on wall-clock load).
  virtual bool deterministic() const { return true; }

  /// True when the engine maps onto a caller-supplied DeviceModel
  /// (MapOptions::device). The routed baselines qualify; structured mappers
  /// own their topology and the pipeline rejects a device for them.
  virtual bool accepts_device() const { return false; }

  /// Smallest engine-feasible size >= n (sycamore/lattice round up to a
  /// square, heavy_hex to a multiple of five).
  virtual std::int32_t native_size(std::int32_t n) const { return n; }

  /// Native coupling graph for a *native* size n.
  virtual CouplingGraph build_graph(std::int32_t n,
                                    const MapOptions& opts) const = 0;

  /// Latency model depth is charged under on this backend. The model may
  /// reference `g`; the graph must outlive it.
  virtual LatencyModel latency_model(const CouplingGraph& g) const {
    (void)g;
    return LatencyModel::unit();
  }

  /// Maps QFT(n) onto `g` (n native, g = build_graph(n, opts)). Throws on
  /// engine failure (e.g. SATMAP exhausting its time budget). The default
  /// is a thin QFT-spec wrapper: route qft_logical(n) through map_circuit —
  /// which is exactly what the routed baselines do; structured mappers
  /// override with their analytical constructions.
  virtual MappedCircuit map(std::int32_t n, const CouplingGraph& g,
                            const MapOptions& opts) const;

  /// Maps an arbitrary logical circuit onto `g`
  /// (g = build_graph(native_size(logical.num_qubits()), opts), which may be
  /// larger than the circuit). The default routes with SABRE on the engine's
  /// native topology, so every registered engine — including the structured
  /// QFT mappers, whose contribution is then their graph and latency model —
  /// accepts general circuits; SAT-backed engines override with their own
  /// router.
  virtual MappedCircuit map_circuit(const Circuit& logical,
                                    const CouplingGraph& g,
                                    const MapOptions& opts) const;
};

/// String-keyed engine registry plus the run loop (map → check → package).
class MapperPipeline {
 public:
  /// The seven paper engines (four structured mappers + three baselines)
  /// plus the Appendix-7 `grid` target.
  static MapperPipeline with_paper_engines();

  /// Shared default instance used by the free `map_qft`.
  static const MapperPipeline& global();

  /// Registers (or replaces, by name) an engine.
  void register_engine(std::unique_ptr<const MapperEngine> engine);

  /// Registered keys, sorted.
  std::vector<std::string> engine_names() const;

  bool has(const std::string& name) const;

  /// Null when `name` is not registered.
  const MapperEngine* find(const std::string& name) const;

  /// Throws std::invalid_argument naming the known engines when absent.
  const MapperEngine& at(const std::string& name) const;

  /// Full pipeline: snap size, build graph, map, verify, time each stage.
  MapResult run(const std::string& engine, std::int32_t n,
                const MapOptions& opts = {}) const;

  /// run(engine, n, opts).summary(), through the same stages, except that
  /// the structured mappers emit in summary mode and store no gate. Routed
  /// engines, and any run on a DeviceModel (its calibrated fidelity walks
  /// the gates), materialize, verify and summarize as run() does.
  MapSummary summarize(const std::string& engine, std::int32_t n,
                       const MapOptions& opts = {}) const;

  /// General-circuit pipeline: build the engine's native graph (snapped to
  /// fit the circuit), route the supplied circuit onto it, and verify with
  /// the general checker (verify/circuit_checker.hpp) under the engine's
  /// latency model. Verification is per entry point: run() judges QFT
  /// requests by the fused emit audit (or check_qft_mapping for the routed
  /// engines); arbitrary circuits are matched gate-for-gate against the
  /// input. requested_n and n both report the circuit's qubit count (a
  /// circuit is never resized); MapResult::graph carries the
  /// possibly-larger physical register.
  MapResult run_circuit(const std::string& engine, const Circuit& logical,
                        const MapOptions& opts = {}) const;

 private:
  MapResult run_qft(const std::string& engine, std::int32_t n,
                    const MapOptions& opts, bool store_gates) const;

  std::map<std::string, std::unique_ptr<const MapperEngine>> engines_;
};

/// Facade over MapperPipeline::global().
MapResult map_qft(const std::string& arch, std::int32_t n,
                  const MapOptions& opts = {});

/// General-circuit facade over MapperPipeline::global() — any OpenQASM
/// producer's entry point: `map_circuit(arch, from_qasm(text))`.
MapResult map_circuit(const std::string& arch, const Circuit& logical,
                      const MapOptions& opts = {});

}  // namespace qfto
