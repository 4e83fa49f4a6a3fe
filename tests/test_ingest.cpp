// General-circuit ingestion: MapperPipeline::run_circuit across the engine
// registry, the MappingTracker-based general checker (positive and tampered
// cases), circuit fingerprints in the ResultCache key, and the service /
// serve plumbing that carries parsed QASM end-to-end.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arch/line.hpp"
#include "baseline/sabre.hpp"
#include "circuit/qft_spec.hpp"
#include "common/prng.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "qasm/qasm.hpp"
#include "service/mapping_service.hpp"
#include "service/result_cache.hpp"
#include "service/serve.hpp"
#include "verify/circuit_checker.hpp"
#include "verify/equivalence.hpp"

namespace qfto {
namespace {

/// Small non-QFT workload exercising every gate kind, incl. explicit SWAPs.
Circuit sample_circuit(std::int32_t n) {
  Circuit c(n);
  c.append(Gate::h(0));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::rz(1, 0.375));
  c.append(Gate::cphase(1, n - 1, 0.25));
  c.append(Gate::swap(0, n - 1));
  c.append(Gate::x(n - 1));
  c.append(Gate::cphase(0, 1, -1.125));
  c.append(Gate::h(n - 1));
  return c;
}

TEST(MapCircuit, EveryRegisteredEngineAcceptsArbitraryCircuits) {
  const Circuit logical = sample_circuit(5);
  for (const auto& name : MapperPipeline::global().engine_names()) {
    if (name == "satmap") continue;  // covered separately with a budget
    const MapResult r = map_circuit(name, logical);
    EXPECT_TRUE(r.check.ok) << name << ": " << r.check.error;
    EXPECT_EQ(r.requested_n, 5) << name;
    EXPECT_EQ(r.n, 5) << name;
    EXPECT_GE(r.graph.num_qubits(), 5) << name;
    if (r.mapped.num_physical() <= 14) {
      EXPECT_LT(mapped_equivalence_error(r.mapped, 2, 0x5eed, &logical),
                1e-9)
          << name;
    }
  }
}

TEST(MapCircuit, SatmapRoutesGeneralCircuits) {
  Circuit logical(3);
  logical.append(Gate::h(0));
  logical.append(Gate::cnot(0, 2));
  logical.append(Gate::cphase(1, 2, 0.5));
  MapOptions opts;
  opts.satmap.time_budget_seconds = 60.0;
  const MapResult r = map_circuit("satmap", logical, opts);
  EXPECT_TRUE(r.check.ok) << r.check.error;
  EXPECT_LT(mapped_equivalence_error(r.mapped, 2, 0x5eed, &logical), 1e-9);
}

TEST(MapCircuit, HeavyHexDeviceRoutesArbitraryCircuitsOnTheFullGraph) {
  // The dormant device engine is registered: general circuits route (via
  // SABRE on the engine's native topology) onto the *unreduced* device graph
  // and verify through the general checker.
  const Circuit logical = sample_circuit(6);
  const MapResult r = map_circuit("heavy_hex_device", logical);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  EXPECT_EQ(r.n, 6);
  EXPECT_EQ(r.graph.num_qubits(), 13);  // one 13-qubit row holds 6 logicals
  EXPECT_LT(mapped_equivalence_error(r.mapped, 2, 0x5eed, &logical), 1e-9);
}

TEST(MapCircuit, QftSpecInputVerifiesThroughTheGeneralChecker) {
  const MapResult r = map_circuit("sabre", qft_logical(6));
  EXPECT_TRUE(r.check.ok) << r.check.error;
  EXPECT_EQ(r.check.counts.h, 6);
  EXPECT_EQ(r.check.counts.cphase, qft_pair_count(6));
}

TEST(MapCircuit, RejectsEmptyRegisterAndUnknownEngine) {
  EXPECT_THROW(map_circuit("sabre", Circuit(0)), std::invalid_argument);
  EXPECT_THROW(map_circuit("nosuch", sample_circuit(3)),
               std::invalid_argument);
}

// ------------------------------------------------------- general checker --

TEST(CircuitChecker, AcceptsRoutedCircuitAndCountsDepth) {
  const Circuit logical = sample_circuit(4);
  const CouplingGraph line = make_line(4);
  const MappedCircuit mc = sabre_route(logical, line);
  const QftCheckResult check = check_circuit_mapping(mc, logical, line);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.depth, 0);
  EXPECT_EQ(check.counts.total(),
            static_cast<std::int64_t>(mc.circuit.size()));
}

TEST(CircuitChecker, RejectsMissingGate) {
  const Circuit logical = sample_circuit(4);
  const CouplingGraph line = make_line(4);
  MappedCircuit mc = sabre_route(logical, line);
  Circuit truncated(mc.circuit.num_qubits());
  for (std::size_t i = 0; i + 1 < mc.circuit.size(); ++i) {
    truncated.append(mc.circuit[i]);
  }
  mc.circuit = truncated;
  const QftCheckResult check = check_circuit_mapping(mc, logical, line);
  EXPECT_FALSE(check.ok);
}

TEST(CircuitChecker, RejectsWrongAngleAndForeignGate) {
  const Circuit logical = sample_circuit(4);
  const CouplingGraph line = make_line(4);
  const MappedCircuit routed = sabre_route(logical, line);

  MappedCircuit wrong_angle = routed;
  Circuit tampered(routed.circuit.num_qubits());
  for (std::size_t i = 0; i < routed.circuit.size(); ++i) {
    Gate g = routed.circuit[i];
    if (g.kind == GateKind::kCPhase) g.angle += 1e-3;
    tampered.append(g);
  }
  wrong_angle.circuit = tampered;
  EXPECT_FALSE(check_circuit_mapping(wrong_angle, logical, line).ok);

  MappedCircuit extra = routed;
  extra.circuit.append(Gate::h(0));
  EXPECT_FALSE(check_circuit_mapping(extra, logical, line).ok);
}

TEST(CircuitChecker, RejectsNonEdgeGateAndStaleFinalMapping) {
  Circuit logical(4);
  logical.append(Gate::cphase(0, 3, 0.5));
  const CouplingGraph line = make_line(4);

  MappedCircuit non_edge;
  non_edge.circuit = Circuit(4);
  non_edge.circuit.append(Gate::cphase(0, 3, 0.5));  // 0-3 not a line edge
  non_edge.initial = {0, 1, 2, 3};
  non_edge.final_mapping = {0, 1, 2, 3};
  const QftCheckResult check = check_circuit_mapping(non_edge, logical, line);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("edge"), std::string::npos) << check.error;

  // A trailing SWAP moves the tracked mapping; the declared one goes stale.
  const Circuit simple = sample_circuit(4);
  MappedCircuit stale = sabre_route(simple, line);
  stale.circuit.append(Gate::swap(0, 1));
  EXPECT_FALSE(check_circuit_mapping(stale, simple, line).ok);
}

TEST(CircuitChecker, AcceptsDiagonalCommutationButNotBarrierCrossing) {
  // rz / cphase sharing a wire commute (relaxed DAG); an H is a barrier.
  Circuit logical(2);
  logical.append(Gate::rz(0, 0.25));
  logical.append(Gate::cphase(0, 1, 0.5));
  logical.append(Gate::h(0));

  MappedCircuit mc;
  mc.circuit = Circuit(2);
  mc.circuit.append(Gate::cphase(0, 1, 0.5));  // commuted ahead of the rz
  mc.circuit.append(Gate::rz(0, 0.25));
  mc.circuit.append(Gate::h(0));
  mc.initial = {0, 1};
  mc.final_mapping = {0, 1};
  const CouplingGraph line = make_line(2);
  EXPECT_TRUE(check_circuit_mapping(mc, logical, line).ok);

  MappedCircuit crossed = mc;
  Circuit bad(2);
  bad.append(Gate::h(0));  // barrier hoisted above both diagonals
  bad.append(Gate::cphase(0, 1, 0.5));
  bad.append(Gate::rz(0, 0.25));
  crossed.circuit = bad;
  EXPECT_FALSE(check_circuit_mapping(crossed, logical, line).ok);
}

TEST(CircuitChecker, LogicalSwapsVerifyWhetherEmittedOrAbsorbed) {
  Circuit logical(3);
  logical.append(Gate::h(0));
  logical.append(Gate::swap(0, 2));
  logical.append(Gate::x(0));
  const CouplingGraph line = make_line(3);

  // Emitted: the router executes the SWAP as a gate.
  const MappedCircuit routed = sabre_route(logical, line);
  EXPECT_TRUE(check_circuit_mapping(routed, logical, line).ok);
  EXPECT_LT(mapped_equivalence_error(routed, 3, 0x5eed, &logical), 1e-9);

  // Absorbed: a mapper may realize the SWAP purely as relabeling, never
  // emitting it — the post-swap X(0) acts on the data that never left
  // physical 2, and the exit mapping carries the permutation.
  MappedCircuit absorbed;
  absorbed.circuit = Circuit(3);
  absorbed.circuit.append(Gate::h(0));
  absorbed.circuit.append(Gate::x(2));
  absorbed.initial = {0, 1, 2};
  absorbed.final_mapping = {2, 1, 0};
  EXPECT_TRUE(check_circuit_mapping(absorbed, logical, line).ok);
  EXPECT_LT(mapped_equivalence_error(absorbed, 3, 0x5eed, &logical), 1e-9);
}

// --------------------------------------------------- fingerprint / cache --

TEST(Fingerprint, ContentSensitiveAndStable) {
  const Circuit a = sample_circuit(4);
  const Circuit b = sample_circuit(4);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  Circuit angle_tweak = sample_circuit(4);
  angle_tweak.append(Gate::rz(0, 1e-9));
  EXPECT_NE(a.fingerprint(), angle_tweak.fingerprint());

  // Same gates, different register width.
  Circuit wide(5);
  for (const auto& g : a) wide.append(g);
  EXPECT_NE(a.fingerprint(), wide.fingerprint());

  const MapOptions opts;
  EXPECT_NE(ResultCache::key("sabre", 4, opts, &a),
            ResultCache::key("sabre", 4, opts, &angle_tweak));
  EXPECT_NE(ResultCache::key("sabre", 4, opts, &a),
            ResultCache::key("sabre", 4, opts, nullptr));
}

TEST(Service, GeneralCircuitsAreCachedByContent) {
  MappingService::Options sopts;
  sopts.num_threads = 1;
  MappingService service(sopts);

  const auto circuit = std::make_shared<const Circuit>(sample_circuit(4));
  BatchRequest req;
  req.engine = "sabre";
  req.circuit = circuit;  // n auto-filled by submit()

  const JobResult cold = service.submit(req).wait();
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.cache_hit);

  const JobResult warm = service.submit(req).wait();
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.result.get(), cold.result.get());
  EXPECT_EQ(warm.result->check.counts.swap, cold.result->check.counts.swap);

  // Same engine, same width, different content: no stale hit.
  Circuit other = sample_circuit(4);
  other.append(Gate::h(2));
  BatchRequest req2;
  req2.engine = "sabre";
  req2.circuit = std::make_shared<const Circuit>(std::move(other));
  const JobResult distinct = service.submit(req2).wait();
  ASSERT_TRUE(distinct.ok()) << distinct.error;
  EXPECT_FALSE(distinct.cache_hit);
}

TEST(Service, CircuitSizeMismatchFailsInBand) {
  MappingService::Options sopts;
  sopts.num_threads = 1;
  MappingService service(sopts);
  BatchRequest req;
  req.engine = "sabre";
  req.n = 7;  // circuit says 4
  req.circuit = std::make_shared<const Circuit>(sample_circuit(4));
  const JobResult out = service.submit(req).wait();
  EXPECT_EQ(out.status, JobStatus::kFailed);
  EXPECT_NE(out.error.find("does not match"), std::string::npos) << out.error;
}

// ------------------------------------------------------- serve protocol --

TEST(ServeQasm, ParsesQasmFieldAndDerivesN) {
  const ServeRequest req = parse_serve_request(
      R"({"id": 7, "engine": "sabre", )"
      R"("qasm": "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n"})");
  ASSERT_TRUE(req.ok) << req.error;
  ASSERT_NE(req.request.circuit, nullptr);
  EXPECT_EQ(req.request.n, 3);
  EXPECT_EQ(req.request.circuit->size(), 2u);
}

TEST(ServeQasm, RejectsBadQasmWithPositionedErrorInBand) {
  const ServeRequest req = parse_serve_request(
      R"({"engine": "sabre", "qasm": "OPENQASM 2.0;\nqreg q[2];\nbogus;\n"})");
  EXPECT_FALSE(req.ok);
  EXPECT_NE(req.error.find("line 3"), std::string::npos) << req.error;
}

TEST(ServeQasm, QasmIsExclusiveWithExplicitSizes) {
  const ServeRequest req = parse_serve_request(
      R"({"engine": "sabre", "n": 3, )"
      R"("qasm": "OPENQASM 2.0;\nqreg q[3];\nh q[0];\n"})");
  EXPECT_FALSE(req.ok);
  EXPECT_NE(req.error.find("mutually exclusive"), std::string::npos)
      << req.error;
}

}  // namespace
}  // namespace qfto
