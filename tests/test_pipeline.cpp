// MapperPipeline facade: registry contents, checker-clean sweeps per engine
// on the native coupling graph, size snapping, option forwarding, the
// routed-baseline target override, and clean failure on unknown engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "arch/heavy_hex.hpp"
#include "arch/sycamore.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/stats.hpp"
#include "common/prng.hpp"
#include "mapper/emitter.hpp"
#include "mapper/lnn_mapper.hpp"
#include "mapper/sycamore_mapper.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "sat/solver_interface.hpp"
#include "service/mapping_service.hpp"
#include "support/dpll_solver.hpp"
#include "support/qft_replay.hpp"

namespace qfto {
namespace {

// ---------------------------------------------------------------- registry --

TEST(PipelineRegistry, ListsAllSevenPaperEngines) {
  const auto names = MapperPipeline::global().engine_names();
  for (const char* required :
       {"lnn", "heavy_hex", "heavy_hex_device", "sycamore", "lattice", "sabre",
        "satmap", "lnn_baseline"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing engine: " << required;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PipelineRegistry, EveryEngineDescribesItself) {
  const auto& pipeline = MapperPipeline::global();
  for (const auto& name : pipeline.engine_names()) {
    EXPECT_TRUE(pipeline.has(name));
    EXPECT_NE(pipeline.find(name), nullptr);
    EXPECT_EQ(pipeline.at(name).name(), name);
    EXPECT_FALSE(pipeline.at(name).description().empty()) << name;
  }
}

TEST(PipelineRegistry, UnknownEngineFailsCleanly) {
  const auto& pipeline = MapperPipeline::global();
  EXPECT_FALSE(pipeline.has("nosuch"));
  EXPECT_EQ(pipeline.find("nosuch"), nullptr);
  EXPECT_THROW(pipeline.at("nosuch"), std::invalid_argument);
  EXPECT_THROW(pipeline.run("nosuch", 4), std::invalid_argument);
  EXPECT_THROW(map_qft("", 4), std::invalid_argument);
  try {
    map_qft("nosuch", 4);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error message must name the known engines so CLIs can relay it.
    EXPECT_NE(std::string(e.what()).find("lnn"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sycamore"), std::string::npos);
  }
}

TEST(PipelineRegistry, CustomEngineCanBeRegisteredAndRun) {
  class EchoLnn final : public MapperEngine {
   public:
    std::string name() const override { return "echo_lnn"; }
    std::string description() const override { return "lnn under a new key"; }
    CouplingGraph build_graph(std::int32_t n,
                              const MapOptions&) const override {
      CouplingGraph g("echo-line", n);
      for (std::int32_t i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
      return g;
    }
    MappedCircuit map(std::int32_t n, const CouplingGraph&,
                      const MapOptions&) const override {
      return map_qft_lnn(n);
    }
  };
  MapperPipeline pipeline = MapperPipeline::with_paper_engines();
  pipeline.register_engine(std::make_unique<EchoLnn>());
  ASSERT_TRUE(pipeline.has("echo_lnn"));
  const MapResult r = pipeline.run("echo_lnn", 8);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  EXPECT_EQ(r.check.counts.cphase, qft_pair_count(8));
}

// ------------------------------------------------- per-engine checker sweep --

struct SweepCase {
  const char* engine;
  std::vector<std::int32_t> sizes;  // requested sizes (snapping exercised)
};

class EngineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineSweep, CheckerCleanOnNativeGraph) {
  const SweepCase& c = GetParam();
  MapOptions opts;
  opts.sabre.trials = 1;                   // keep the heuristic sweep fast
  opts.satmap.time_budget_seconds = 60.0;  // tiny instances only
  for (const std::int32_t n : c.sizes) {
    const MapResult r = map_qft(c.engine, n, opts);
    ASSERT_TRUE(r.check.ok)
        << c.engine << " n=" << n << ": " << r.check.error;
    EXPECT_EQ(r.engine, c.engine);
    EXPECT_EQ(r.requested_n, n);
    EXPECT_GE(r.n, n) << "native size must not shrink the request";
    EXPECT_EQ(r.mapped.num_logical(), r.n);
    EXPECT_EQ(r.check.counts.cphase, qft_pair_count(r.n));
    EXPECT_EQ(r.check.counts.h, r.n);
    EXPECT_GE(r.graph.num_qubits(), r.n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineSweep,
    ::testing::Values(
        SweepCase{"lnn", {1, 2, 3, 5, 8, 16, 33}},
        SweepCase{"heavy_hex", {5, 10, 12, 20, 50}},
        SweepCase{"heavy_hex_device", {5, 13, 14, 30, 60}},
        SweepCase{"sycamore", {4, 9, 16, 36, 64}},
        SweepCase{"lattice", {4, 9, 10, 25, 64}},
        SweepCase{"grid", {4, 9, 25, 49}},
        SweepCase{"lnn_baseline", {4, 9, 25, 49}},
        SweepCase{"sabre", {4, 9, 16}},
        SweepCase{"satmap", {3, 4}}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return std::string(info.param.engine);
    });

// --------------------------------------------------- size snapping details --

TEST(PipelineSnapping, SycamoreRoundsUpToEvenSquare) {
  const MapResult r = map_qft("sycamore", 30, MapOptions{});
  EXPECT_EQ(r.n, 36);  // m=6 (m=5.48 rounded up, then made even)
  EXPECT_EQ(r.graph.num_qubits(), 36);
  EXPECT_TRUE(r.check.ok) << r.check.error;
}

TEST(PipelineSnapping, HeavyHexRoundsUpToMultipleOfFive) {
  EXPECT_EQ(map_qft("heavy_hex", 11).n, 15);
  EXPECT_EQ(map_qft("heavy_hex", 3).n, 5);
}

TEST(PipelineSnapping, LatticeRoundsUpToSquare) {
  EXPECT_EQ(map_qft("lattice", 10).n, 16);
  EXPECT_EQ(map_qft("lnn_baseline", 2).n, 4);
}

TEST(PipelineSnapping, HeavyHexDeviceSnapsToFullDeviceSizes) {
  // 13-qubit rows, 4 bridges per gap: r rows hold N = 17r - 4 qubits.
  EXPECT_EQ(map_qft("heavy_hex_device", 5).n, 13);    // r=1: a bare row
  EXPECT_EQ(map_qft("heavy_hex_device", 13).n, 13);
  EXPECT_EQ(map_qft("heavy_hex_device", 14).n, 30);   // r=2
  EXPECT_EQ(map_qft("heavy_hex_device", 47).n, 47);   // r=3 exactly
  const MapResult r = map_qft("heavy_hex_device", 31);
  EXPECT_EQ(r.n, 47);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  // The result is verified on the *full* device graph — bridge links the
  // reduction deletes are present (and simply unused).
  EXPECT_EQ(r.graph.num_qubits(), 47);
  EXPECT_GT(r.graph.num_edges(), 46);  // more than a spanning tree: full device
}

TEST(PipelineSnapping, ExactNativeSizesAreKept) {
  EXPECT_EQ(map_qft("lnn", 7).n, 7);
  EXPECT_EQ(map_qft("sycamore", 16).n, 16);
  EXPECT_EQ(map_qft("heavy_hex", 20).n, 20);
}

// ------------------------------------------------------- option forwarding --

TEST(PipelineOptions, StrictIeCostsDepthOnSycamore) {
  MapOptions strict;
  strict.strict_ie = true;
  const MapResult relaxed = map_qft("sycamore", 36);
  const MapResult strict_r = map_qft("sycamore", 36, strict);
  ASSERT_TRUE(relaxed.check.ok && strict_r.check.ok);
  EXPECT_GT(strict_r.check.depth, relaxed.check.depth);
}

TEST(PipelineOptions, TargetOverrideRoutesSabreOnDeviceGraph) {
  const CouplingGraph g = make_sycamore(4);
  MapOptions opts;
  opts.sabre.trials = 1;
  opts.target = &g;
  const MapResult r = map_qft("sabre", 16, opts);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  EXPECT_EQ(r.graph.name(), g.name());
  EXPECT_EQ(r.graph.num_qubits(), 16);
}

TEST(PipelineOptions, TargetSmallerThanCircuitIsRejected) {
  const CouplingGraph g = make_sycamore(2);  // 4 qubits
  MapOptions opts;
  opts.target = &g;
  EXPECT_THROW(map_qft("sabre", 9, opts), std::invalid_argument);
}

TEST(PipelineOptions, VerifyOffSkipsTheChecker) {
  MapOptions opts;
  opts.verify = false;
  const MapResult r = map_qft("lnn", 12, opts);
  EXPECT_FALSE(r.check.ok);  // untouched default
  EXPECT_TRUE(r.check.error.empty());
  EXPECT_EQ(r.timings.check_seconds, 0.0);
  EXPECT_EQ(r.mapped.num_logical(), 12);
}

namespace {

void expect_same_check(const QftCheckResult& a, const QftCheckResult& b,
                       const std::string& label) {
  ASSERT_TRUE(a.ok) << label << ": " << a.error;
  ASSERT_TRUE(b.ok) << label << ": " << b.error;
  EXPECT_EQ(a.depth, b.depth) << label;
  EXPECT_EQ(a.error, b.error) << label;
  EXPECT_EQ(a.counts.h, b.counts.h) << label;
  EXPECT_EQ(a.counts.cphase, b.counts.cphase) << label;
  EXPECT_EQ(a.counts.swap, b.counts.swap) << label;
  EXPECT_EQ(a.counts.cnot, b.counts.cnot) << label;
  EXPECT_EQ(a.counts.total(), b.counts.total()) << label;
}

/// Runs `engine` at `n` and re-verifies result.mapped with the streaming
/// checker and the replay oracle under the engine's own latency model.
void expect_check_matches_oracles(const MapperPipeline& pipeline,
                                  const std::string& engine, std::int32_t n,
                                  const MapOptions& opts) {
  const std::string label = engine + " n=" + std::to_string(n);
  const MapResult r = pipeline.run(engine, n, opts);
  const LatencyModel latency = pipeline.at(engine).latency_model(r.graph);
  expect_same_check(r.check, check_qft_mapping(r.mapped, r.graph, latency),
                    label + " vs streaming");
  expect_same_check(r.check,
                    check_qft_mapping_replay(r.mapped, r.graph, latency),
                    label + " vs replay");
}

}  // namespace

TEST(PipelineVerify, CheckMatchesStreamingAndReplayOracles) {
  // Whatever verifier the pipeline picked (the fused emit audit for the
  // structured engines, check_qft_mapping for the routed ones), its verdict
  // must equal both the streaming checker and the replay oracle re-run on
  // the result, for every registered engine.
  const auto& pipeline = MapperPipeline::global();
  for (const auto& name : pipeline.engine_names()) {
    MapOptions opts;
    opts.sabre.trials = 1;
    opts.satmap.time_budget_seconds = 60.0;
    const std::int32_t n = name == "satmap" ? 4 : (name == "sabre" ? 9 : 16);
    expect_check_matches_oracles(pipeline, name, n, opts);
  }
}

TEST(PipelineVerify, CheckMatchesOraclesAcrossSizes) {
  // Acceptance sweep over QFT-{16,64,256}. SATMAP is skipped (TLE territory
  // at these sizes); SABRE runs one trial and stops at 64 (routing time).
  const auto& pipeline = MapperPipeline::global();
  for (const std::int32_t n : {16, 64, 256}) {
    for (const auto& name : pipeline.engine_names()) {
      if (name == "satmap") continue;
      if (name == "sabre" && n > 64) continue;  // routing time, not coverage
      MapOptions opts;
      opts.sabre.trials = 1;
      expect_check_matches_oracles(pipeline, name, n, opts);
    }
  }
}

TEST(PipelineOptions, SatmapBudgetExhaustionThrowsRuntimeError) {
  MapOptions opts;
  opts.satmap.time_budget_seconds = 1e-6;  // certain TLE
  EXPECT_THROW(map_qft("satmap", 8, opts), std::runtime_error);
}

TEST(PipelineOptions, SatmapSolverStatsSurfaceIntoTimings) {
  MapOptions opts;
  opts.satmap.time_budget_seconds = 60.0;
  const MapResult r = map_qft("satmap", 3, opts);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  EXPECT_GT(r.timings.sat.solve_calls, 0);
  EXPECT_GT(r.timings.sat.decisions, 0);
  EXPECT_GT(r.timings.sat.vars, 0);

  // A caller-installed sink sees the same numbers the pipeline recorded.
  sat::SolverStats sink;
  MapOptions with_sink = opts;
  with_sink.satmap.stats_out = &sink;
  const MapResult again = map_qft("satmap", 3, with_sink);
  ASSERT_TRUE(again.check.ok);
  EXPECT_EQ(sink.solve_calls, again.timings.sat.solve_calls);
  EXPECT_EQ(sink.conflicts, again.timings.sat.conflicts);

  // Analytical engines never run a solver.
  const MapResult lnn = map_qft("lnn", 8);
  EXPECT_EQ(lnn.timings.sat.solve_calls, 0);
  EXPECT_EQ(lnn.timings.sat.decisions, 0);
}

TEST(PipelineOptions, SabreStatsSurfaceIntoTimings) {
  const MapResult r = map_qft("sabre", 12);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  EXPECT_EQ(r.timings.sabre.passes, 5 * (1 + 2 * 2));
  EXPECT_EQ(r.timings.sabre.swaps, r.check.counts.swap);
  EXPECT_GT(r.timings.sabre.blocked_steps, 0);

  // A caller-installed sink sees the same numbers the pipeline recorded.
  SabreStats sink;
  MapOptions with_sink;
  with_sink.sabre.stats_out = &sink;
  const MapResult again = map_qft("sabre", 12, with_sink);
  EXPECT_EQ(sink.blocked_steps, again.timings.sabre.blocked_steps);
  EXPECT_EQ(sink.rebuilt_steps, again.timings.sabre.rebuilt_steps);

  // Analytical engines never route with SABRE.
  EXPECT_EQ(map_qft("lnn", 8).timings.sabre.passes, 0);
}

TEST(PipelineOptions, SatmapSolverBackendSelectable) {
  sat::register_dpll_backend();
  MapOptions opts;
  opts.satmap.time_budget_seconds = 60.0;
  opts.satmap.solver = "dpll";
  const MapResult r = map_qft("satmap", 2, opts);
  ASSERT_TRUE(r.check.ok) << r.check.error;

  MapOptions bogus;
  bogus.satmap.solver = "no-such-backend";
  EXPECT_THROW(map_qft("satmap", 2, bogus), std::invalid_argument);
}

// ------------------------------------------------------- batch front-end --

TEST(PipelineBatch, ResultsComeBackInRequestOrder) {
  std::vector<BatchRequest> reqs;
  for (const char* engine : {"lnn", "heavy_hex", "sycamore", "lattice"}) {
    reqs.push_back({engine, 16, MapOptions{}});
  }
  const auto items = map_qft_batch(reqs, 4);
  ASSERT_EQ(items.size(), reqs.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(items[i].ok) << reqs[i].engine << ": " << items[i].error;
    EXPECT_EQ(items[i].result.engine, reqs[i].engine);
    EXPECT_TRUE(items[i].result.check.ok) << items[i].result.check.error;
  }
}

TEST(PipelineBatch, ParallelMatchesSerialForAnalyticalEngines) {
  std::vector<BatchRequest> reqs;
  for (std::int32_t n : {4, 9, 16, 25, 36}) {
    reqs.push_back({"lattice", n, MapOptions{}});
  }
  const auto serial = map_qft_batch(reqs, 1);
  const auto parallel = map_qft_batch(reqs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok && parallel[i].ok);
    EXPECT_EQ(serial[i].result.mapped.circuit.to_string(),
              parallel[i].result.mapped.circuit.to_string());
  }
}

TEST(PipelineBatch, PerItemFailuresDoNotAbortTheBatch) {
  MapOptions tle;
  tle.satmap.time_budget_seconds = 1e-6;
  const std::vector<BatchRequest> reqs = {
      {"lnn", 8, MapOptions{}},
      {"nosuch", 8, MapOptions{}},
      {"satmap", 8, tle},
      {"sycamore", 4, MapOptions{}},
  };
  const auto items = map_qft_batch(reqs, 2);
  ASSERT_EQ(items.size(), 4u);
  EXPECT_TRUE(items[0].ok);
  EXPECT_FALSE(items[1].ok);
  EXPECT_NE(items[1].error.find("unknown engine"), std::string::npos);
  EXPECT_FALSE(items[2].ok);
  EXPECT_NE(items[2].error.find("satmap"), std::string::npos);
  EXPECT_TRUE(items[3].ok);
}

TEST(PipelineBatch, EmptyBatchIsFine) {
  EXPECT_TRUE(map_qft_batch({}).empty());
}

TEST(PipelineBatch, ItemsEqualFreshRunsAndOwnTheirGates) {
  // A private pipeline runs on the batch's own workers; repeated and
  // snapped requests are mapped again, each into its own circuit.
  const MapperPipeline pipeline = MapperPipeline::with_paper_engines();
  const std::vector<BatchRequest> reqs = {
      {"grid", 30, MapOptions{}}, {"grid", 36, MapOptions{}},
      {"grid", 30, MapOptions{}}};
  const auto items = map_qft_batch(reqs, 2, pipeline);
  ASSERT_EQ(items.size(), reqs.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(items[i].ok) << items[i].error;
    const MapResult fresh = pipeline.run(reqs[i].engine, reqs[i].n);
    const MapResult& got = items[i].result;
    EXPECT_EQ(got.requested_n, reqs[i].n) << i;
    EXPECT_EQ(got.n, fresh.n) << i;
    EXPECT_EQ(got.physical, fresh.physical) << i;
    EXPECT_EQ(got.mapped.circuit.fingerprint(),
              fresh.mapped.circuit.fingerprint())
        << i;
    EXPECT_EQ(got.mapped.initial, fresh.mapped.initial) << i;
    EXPECT_EQ(got.mapped.final_mapping, fresh.mapped.final_mapping) << i;
    EXPECT_EQ(got.check.depth, fresh.check.depth) << i;
    EXPECT_EQ(got.log10_fidelity, fresh.log10_fidelity) << i;
    EXPECT_GT(got.timings.map_seconds, 0.0) << i << ": every item ran";
  }
  EXPECT_NE(items[0].result.mapped.circuit.data(),
            items[2].result.mapped.circuit.data());
}

TEST(PipelineBatch, GeneralCircuitItemsCheckTheirSize) {
  auto circuit = std::make_shared<Circuit>(3);
  circuit->append(Gate::h(0));
  circuit->append(Gate::cnot(0, 2));
  BatchRequest fill{"sabre", 0, MapOptions{}, circuit};
  BatchRequest mismatch{"sabre", 5, MapOptions{}, circuit};
  fill.options.sabre.trials = 1;
  const auto items = map_qft_batch({fill, mismatch}, 2);
  ASSERT_EQ(items.size(), 2u);
  ASSERT_TRUE(items[0].ok) << items[0].error;
  EXPECT_EQ(items[0].result.n, 3);
  EXPECT_TRUE(items[0].result.check.ok) << items[0].result.check.error;
  EXPECT_FALSE(items[1].ok);
  EXPECT_NE(items[1].error.find("n does not match"), std::string::npos)
      << items[1].error;
}

// -------------------------------------------------------------- summaries --

namespace {

/// Field-for-field equality of two summaries. Wall times differ run to run;
/// every other field, the fidelity bit for bit, must not.
void expect_same_summary(const MapSummary& a, const MapSummary& b,
                         const std::string& label) {
  EXPECT_EQ(a.engine, b.engine) << label;
  EXPECT_EQ(a.requested_n, b.requested_n) << label;
  EXPECT_EQ(a.n, b.n) << label;
  EXPECT_EQ(a.physical, b.physical) << label;
  EXPECT_EQ(a.check.ok, b.check.ok) << label;
  EXPECT_EQ(a.check.error, b.check.error) << label;
  EXPECT_EQ(a.check.depth, b.check.depth) << label;
  EXPECT_EQ(a.check.counts.h, b.check.counts.h) << label;
  EXPECT_EQ(a.check.counts.x, b.check.counts.x) << label;
  EXPECT_EQ(a.check.counts.rz, b.check.counts.rz) << label;
  EXPECT_EQ(a.check.counts.cphase, b.check.counts.cphase) << label;
  EXPECT_EQ(a.check.counts.swap, b.check.counts.swap) << label;
  EXPECT_EQ(a.check.counts.cnot, b.check.counts.cnot) << label;
  EXPECT_EQ(std::memcmp(&a.log10_fidelity, &b.log10_fidelity, sizeof(double)),
            0)
      << label << ": " << a.log10_fidelity << " vs " << b.log10_fidelity;
  EXPECT_EQ(a.timings.sat.solve_calls, b.timings.sat.solve_calls) << label;
  EXPECT_EQ(a.timings.sabre.passes, b.timings.sabre.passes) << label;
  EXPECT_EQ(a.timings.sabre.blocked_steps, b.timings.sabre.blocked_steps)
      << label;
  EXPECT_EQ(a.timings.sabre.swaps, b.timings.sabre.swaps) << label;
}

const char* const kStructuredEngines[] = {
    "lnn", "heavy_hex", "heavy_hex_device", "sycamore",
    "lattice", "grid", "lnn_baseline"};

/// summarize() against run().summary(), and the engine's emitter in summary
/// mode against the materialized verdict: no gate stored, none reserved.
void expect_summary_equals_materialized(const std::string& engine,
                                        std::int32_t n,
                                        const MapOptions& opts,
                                        const std::string& variant) {
  const auto& pipeline = MapperPipeline::global();
  const MapResult full = pipeline.run(engine, n, opts);
  const std::string label =
      engine + " n=" + std::to_string(full.n) + variant;
  ASSERT_TRUE(full.check.ok) << label << ": " << full.check.error;
  expect_same_summary(pipeline.summarize(engine, n, opts), full.summary(),
                      label);

  const MapperEngine& mapper = pipeline.at(engine);
  verify::EmitAudit audit;
  audit.model = mapper.latency_model(full.graph);
  audit.store_gates = false;
  MapOptions map_opts = opts;
  map_opts.audit = &audit;
  const MappedCircuit mc = mapper.map(full.n, full.graph, map_opts);
  EXPECT_EQ(mc.circuit.size(), 0u) << label;
  EXPECT_EQ(mc.circuit.capacity(), 0u) << label;
  EXPECT_EQ(mc.circuit.num_qubits(), full.physical) << label;
  EXPECT_EQ(mc.initial, full.mapped.initial) << label;
  EXPECT_EQ(mc.final_mapping, full.mapped.final_mapping) << label;
  ASSERT_TRUE(audit.engaged) << label;
  expect_same_check(audit.result, full.check, label + " summary audit");
}

}  // namespace

TEST(Summary, EqualsMaterialized) {
  // n = 1 snaps to each engine's smallest native size.
  for (const char* engine : kStructuredEngines) {
    for (const std::int32_t n : {1, 64, 1000}) {
      expect_summary_equals_materialized(engine, n, MapOptions{}, "");
    }
  }
  MapOptions strict;
  strict.strict_ie = true;
  MapOptions no_offset;
  no_offset.lattice_phase_offset = 0;
  MapOptions unit_swap_off;
  unit_swap_off.transversal_unit_swap = false;
  for (const char* engine : {"sycamore", "lattice", "grid"}) {
    for (const std::int32_t n : {16, 64, 256}) {
      expect_summary_equals_materialized(engine, n, strict, " strict_ie");
      if (std::string(engine) == "sycamore") continue;
      expect_summary_equals_materialized(engine, n, no_offset,
                                         " lattice_phase_offset=0");
      expect_summary_equals_materialized(engine, n, unit_swap_off,
                                         " transversal_unit_swap=false");
    }
  }
}

TEST(Summary, RoutedEnginesMaterializeAndSummarize) {
  MapOptions opts;
  opts.sabre.trials = 1;
  opts.satmap.time_budget_seconds = 60.0;
  const auto& pipeline = MapperPipeline::global();
  for (const auto& [engine, n] : {std::pair<const char*, std::int32_t>{
                                      "sabre", 16},
                                  {"satmap", 4}}) {
    const MapResult full = pipeline.run(engine, n, opts);
    ASSERT_TRUE(full.check.ok) << engine << ": " << full.check.error;
    const MapSummary summary = pipeline.summarize(engine, n, opts);
    if (std::string(engine) == "satmap") {
      // The solver's effort depends on its budget clock; the mapping and
      // its verdict do not.
      EXPECT_EQ(summary.check.depth, full.check.depth);
      EXPECT_EQ(summary.check.counts.swap, full.check.counts.swap);
      continue;
    }
    expect_same_summary(summary, full.summary(), engine);
  }
}

TEST(Summary, VerifyOffStillStoresNoGates) {
  // "verify": false serve requests summarize too: the pipeline hands the
  // structured emitter a summary-mode audit and drops its verdict.
  struct Seen {
    bool summary_mode = false;
    std::size_t capacity = 1;
  };
  class ProbeLnn final : public MapperEngine {
   public:
    explicit ProbeLnn(Seen* seen) : seen_(seen) {}
    std::string name() const override { return "probe_lnn"; }
    std::string description() const override { return "lnn, observed"; }
    CouplingGraph build_graph(std::int32_t n,
                              const MapOptions&) const override {
      return MapperPipeline::global().at("lnn").build_graph(n, {});
    }
    MappedCircuit map(std::int32_t n, const CouplingGraph&,
                      const MapOptions& opts) const override {
      MappedCircuit mc = map_qft_lnn(n, opts.audit);
      seen_->summary_mode =
          opts.audit != nullptr && !opts.audit->store_gates;
      seen_->capacity = mc.circuit.capacity();
      return mc;
    }

   private:
    Seen* seen_;
  };
  Seen seen;
  MapperPipeline pipeline = MapperPipeline::with_paper_engines();
  pipeline.register_engine(std::make_unique<ProbeLnn>(&seen));
  MapOptions off;
  off.verify = false;
  const MapSummary summary = pipeline.summarize("probe_lnn", 12, off);
  EXPECT_TRUE(seen.summary_mode);
  EXPECT_EQ(seen.capacity, 0u);
  expect_same_summary(summary, pipeline.run("probe_lnn", 12, off).summary(),
                      "verify off");
  EXPECT_FALSE(summary.check.ok);
  EXPECT_TRUE(summary.check.error.empty());
  EXPECT_EQ(summary.log10_fidelity, 0.0);
  EXPECT_FALSE(seen.summary_mode) << "run() materializes";
}

TEST(Summary, SabreColdAndHitAreEqual) {
  MappingService::Options options;
  options.num_threads = 1;
  MappingService service{options};
  MapOptions opts;
  opts.sabre.trials = 2;
  const JobResult cold = service.submit({"sabre", 12, opts}).wait();
  const JobResult hit = service.submit({"sabre", 12, opts}).wait();
  ASSERT_TRUE(cold.ok() && hit.ok()) << cold.error << hit.error;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  expect_same_summary(*hit.result, *cold.result, "sabre hit vs cold");
  expect_same_summary(*cold.result,
                      MapperPipeline::global().run("sabre", 12, opts).summary(),
                      "sabre cold vs run");
}

// ------------------------------------------------------------ determinism --

TEST(PipelineDeterminism, StructuredEnginesAreSeedFree) {
  // Analytical mappers must emit byte-identical circuits run to run — the
  // consistency guarantee the paper contrasts with SABRE (Fig. 27).
  for (const char* engine : {"lnn", "heavy_hex", "sycamore", "lattice"}) {
    const MapResult a = map_qft(engine, 16);
    const MapResult b = map_qft(engine, 16);
    EXPECT_EQ(a.mapped.circuit.to_string(), b.mapped.circuit.to_string())
        << engine;
    EXPECT_EQ(a.mapped.initial, b.mapped.initial) << engine;
    EXPECT_EQ(a.mapped.final_mapping, b.mapped.final_mapping) << engine;
  }
}

// ------------------------------------------------- gate-store reservations --

/// The gate count a structured mapper reserves before emitting QFT at native
/// size n: sycamore reserves by its grid side, heavy-hex by its main line
/// and junctions, the line-based ones by n.
std::int64_t reservation(const std::string& engine, std::int32_t n) {
  if (engine == "sycamore") {
    return sycamore_gate_reservation(
        static_cast<std::int32_t>(std::lround(std::sqrt(n))));
  }
  if (engine == "heavy_hex") {
    const HeavyHexLayout lay = heavy_hex_layout(n);
    return heavy_hex_gate_reservation(lay.main_len, lay.junctions);
  }
  if (engine == "heavy_hex_device") {
    // The engine's device: rows of 13 qubits, n = 17 rows - 4.
    const HeavyHexReduction red =
        simplify_heavy_hex(make_heavy_hex_device((n + 4) / 17, 13));
    std::vector<std::int32_t> junctions;
    for (const auto& [pos, node] : red.dangling) junctions.push_back(pos);
    return heavy_hex_gate_reservation(
        static_cast<std::int32_t>(red.main_line.size()), junctions);
  }
  return qft_gate_reservation(n);
}

TEST(PipelineReservation, StructuredEnginesReserveWhatTheyEmit) {
  // A short reservation makes the emit loop grow the store and fault pages
  // in mid-loop; a loose one prefaults memory nobody writes.
  MapOptions opts;
  opts.verify = false;
  for (const char* engine : {"lnn", "heavy_hex", "heavy_hex_device",
                             "sycamore", "lattice", "grid", "lnn_baseline"}) {
    for (const std::int32_t n : {64, 500, 2048}) {
      const MapResult r = map_qft(engine, n, opts);
      const auto emitted = static_cast<std::int64_t>(r.mapped.circuit.size());
      const std::int64_t reserved = reservation(engine, r.n);
      EXPECT_GE(reserved, emitted) << engine << " n=" << r.n;
      EXPECT_LE(static_cast<double>(reserved),
                1.12 * static_cast<double>(emitted))
          << engine << " n=" << r.n;
      EXPECT_EQ(r.mapped.circuit.capacity(), r.mapped.circuit.size())
          << engine << " n=" << r.n << ": results carry no reserved slack";
    }
  }

  // Heavy-hex layouts emit ~0.90 n^2 (canonical) and ~0.91 n^2 (device)
  // gates; their own bound covers that within 3% from n = 64 on. Every
  // native size a request up to n = 400 snaps to is checked, then those of
  // n = 1000 and 2100: the bound also holds at every native size up to
  // 2104, but emitting all of them takes about a minute.
  for (const char* engine : {"heavy_hex", "heavy_hex_device"}) {
    const MapperEngine& mapper = MapperPipeline::global().at(engine);
    std::int32_t last = 0;
    for (std::int32_t n = 1; n <= 2100; ++n) {
      if (n > 400 && n != 1000 && n != 2100) continue;
      if (mapper.native_size(n) == last) continue;  // mapped already
      last = mapper.native_size(n);
      const MapResult r = map_qft(engine, n, opts);
      const auto emitted = static_cast<std::int64_t>(r.mapped.circuit.size());
      const std::int64_t reserved = reservation(engine, r.n);
      EXPECT_GE(reserved, emitted) << engine << " n=" << r.n;
      if (r.n >= 64) {
        EXPECT_LE(static_cast<double>(reserved),
                  1.03 * static_cast<double>(emitted))
            << engine << " n=" << r.n;
      }
    }
  }
}

TEST(PipelineReservation, RoutedResultsCarryNoGrowthSlack) {
  // SABRE and SATMAP append to a store that grows by doubling; the result
  // is trimmed to its gates before it is returned (and cached).
  MapOptions opts;
  opts.sabre.trials = 1;
  opts.satmap.time_budget_seconds = 60.0;
  for (const auto& [engine, n] : {std::pair<const char*, std::int32_t>{
                                      "sabre", 16},
                                  {"sabre", 64},
                                  {"satmap", 4}}) {
    const MapResult r = map_qft(engine, n, opts);
    EXPECT_GT(r.mapped.circuit.size(), 0u) << engine << " n=" << n;
    EXPECT_EQ(r.mapped.circuit.capacity(), r.mapped.circuit.size())
        << engine << " n=" << n;
  }
}

// ------------------------------------------------------ packed gate store --

/// Whether an angle fits a store word: ±0.0 or ±ldexp(π, -k), k < 2048.
bool angle_packs(double angle) {
  if (angle == 0.0) return true;
  for (int k = 0; k < 2048; ++k) {
    if (std::fabs(angle) == std::ldexp(M_PI, -k)) return true;
  }
  return false;
}

TEST(PipelineStore, QftStreamsStoreEightBytesPerGate) {
  MapOptions opts;
  opts.verify = false;
  for (const char* engine : kStructuredEngines) {
    for (const std::int32_t n : {64, 500}) {
      const MapResult r = map_qft(engine, n, opts);
      ASSERT_GT(r.mapped.circuit.size(), 0u) << engine << " n=" << r.n;
      EXPECT_EQ(r.mapped.circuit.store_bytes(), 8 * r.mapped.circuit.size())
          << engine << " n=" << r.n;
    }
  }
}

TEST(PipelineStore, SabreResultAccountsForItsEscapes) {
  // Arbitrary rz angles do not fit a word; π/2^k ones and the SWAPs SABRE
  // adds do. Every input gate appears once in the routed result.
  Xoshiro256ss rng(0x8b17e);
  const std::int32_t n = 16;
  Circuit logical(n);
  std::size_t escaped = 0;
  for (int i = 0; i < 300; ++i) {
    const auto a = static_cast<std::int32_t>(rng.uniform(n));
    auto b = static_cast<std::int32_t>(rng.uniform(n - 1));
    if (b >= a) ++b;
    switch (rng.uniform(4)) {
      case 0: {
        const double angle = rng.uniform(2) == 0
                                 ? static_cast<double>(rng.uniform(1000)) / 7.0
                                 : -std::ldexp(M_PI, -static_cast<int>(rng.uniform(40)));
        escaped += angle_packs(angle) ? 0 : 1;
        logical.append(Gate::rz(a, angle));
        break;
      }
      case 1: logical.append(Gate::h(a)); break;
      case 2: logical.append(Gate::cphase(a, b, std::ldexp(M_PI, -3))); break;
      default: logical.append(Gate::cnot(a, b)); break;
    }
  }
  ASSERT_GT(escaped, 10u);
  MapOptions opts;
  opts.sabre.trials = 1;
  const MapResult r = map_circuit("sabre", logical, opts);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  const Circuit& routed = r.mapped.circuit;
  std::size_t routed_escapes = 0;
  for (const Gate g : routed) routed_escapes += angle_packs(g.angle) ? 0 : 1;
  EXPECT_EQ(routed_escapes, escaped);
  EXPECT_EQ(routed.store_bytes(), 8 * routed.size() + 16 * escaped);
}

}  // namespace
}  // namespace qfto
