#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/device_model.hpp"
#include "arch/grid.hpp"
#include "arch/heavy_hex.hpp"
#include "arch/lattice_surgery.hpp"
#include "arch/latency_model.hpp"
#include "arch/line.hpp"
#include "arch/sycamore.hpp"
#include "baseline/lnn_baseline.hpp"
#include "baseline/sabre.hpp"
#include "baseline/satmap.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/scheduler.hpp"
#include "circuit/stats.hpp"
#include "common/prng.hpp"
#include "mapper/lnn_mapper.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "support/dpll_solver.hpp"
#include "support/satmap_reference.hpp"
#include "verify/equivalence.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace {

// ---------------------------------------------------------------- SABRE ----

struct SabreCase {
  std::string name;
  CouplingGraph graph;
  std::int32_t n;  // QFT size
};

std::vector<SabreCase> sabre_cases() {
  std::vector<SabreCase> cases;
  cases.push_back({"line8", make_line(8), 8});
  cases.push_back({"grid3x3", make_grid(3, 3), 9});
  cases.push_back({"sycamore4", make_sycamore(4), 16});
  cases.push_back({"heavyhex10", make_heavy_hex(heavy_hex_layout(10)), 10});
  cases.push_back({"latticefull4", make_lattice_surgery_full(4), 16});
  return cases;
}

class SabreOverArchs : public ::testing::TestWithParam<int> {};

TEST_P(SabreOverArchs, ProducesValidQftMapping) {
  const SabreCase c = sabre_cases()[GetParam()];
  SabreOptions opts;
  opts.trials = 2;
  const MappedCircuit mc = sabre_route(qft_logical(c.n), c.graph, opts);
  const auto r = check_qft_mapping(mc, c.graph);
  ASSERT_TRUE(r.ok) << c.name << ": " << r.error;
  EXPECT_EQ(r.counts.cphase, qft_pair_count(c.n));
}

TEST_P(SabreOverArchs, UnitaryEquivalenceSmall) {
  const SabreCase c = sabre_cases()[GetParam()];
  if (c.n > 10) GTEST_SKIP() << "simulation too large";
  SabreOptions opts;
  opts.trials = 1;
  const MappedCircuit mc = sabre_route(qft_logical(c.n), c.graph, opts);
  EXPECT_LT(mapped_equivalence_error(mc), 1e-9) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Archs, SabreOverArchs, ::testing::Range(0, 5));

TEST(Sabre, NoSwapsNeededWhenAllAdjacent) {
  // QFT-2 on a 2-node line: never needs a SWAP.
  const CouplingGraph g = make_line(2);
  const MappedCircuit mc = sabre_route(qft_logical(2), g);
  EXPECT_EQ(count_gates(mc.circuit).swap, 0);
}

TEST(Sabre, SeedChangesOutcome) {
  // Fig. 27: SABRE output varies with the random seed.
  const CouplingGraph g = make_grid(2, 2);
  const Circuit qft = qft_logical(4);
  std::set<std::string> outputs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    outputs.insert(sabre_route_single(qft, g, seed).circuit.to_string());
  }
  EXPECT_GT(outputs.size(), 1u);
}

TEST(Sabre, MultiTrialNotWorseThanSingle) {
  const CouplingGraph g = make_grid(3, 3);
  const Circuit qft = qft_logical(9);
  SabreOptions one;
  one.trials = 1;
  SabreOptions five;
  five.trials = 5;
  const auto d1 = circuit_depth(sabre_route(qft, g, one).circuit);
  const auto d5 = circuit_depth(sabre_route(qft, g, five).circuit);
  EXPECT_LE(d5, d1);
}

TEST(Sabre, RelaxedDagOptionStillValid) {
  const CouplingGraph g = make_grid(3, 3);
  SabreOptions opts;
  opts.use_relaxed_dag = true;
  opts.trials = 2;
  const MappedCircuit mc = sabre_route(qft_logical(9), g, opts);
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LT(mapped_equivalence_error(mc), 1e-9);
}

TEST(Sabre, RejectsDisconnectedGraph) {
  CouplingGraph g("disc", 4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW(sabre_route(qft_logical(4), g), std::invalid_argument);
}

TEST(Sabre, HandlesNonQftCircuits) {
  // SABRE is a general router: a CNOT+RZ circuit routes fine (validated by
  // simulation rather than the QFT checker).
  Circuit c(4);
  c.append(Gate::h(0));
  c.append(Gate::cnot(0, 3));
  c.append(Gate::rz(3, 0.3));
  c.append(Gate::cnot(1, 2));
  c.append(Gate::cnot(0, 2));
  const CouplingGraph g = make_line(4);
  const MappedCircuit mc = sabre_route(c, g);
  EXPECT_LT(mapped_equivalence_error(mc, 4, 0x5eed, &c), 1e-9);
}

// --------------------------------------------------------- SABRE golden ----

// SABRE's output stream, pinned per seed: every gate (fingerprint), both
// mappings and the SWAP count. A rewrite of the scoring loop, the candidate
// enumeration or the extended-set walk must reproduce every score bit for
// bit — the same tie sets, the same RNG draws, the same circuits.
struct SabreStream {
  std::uint64_t fingerprint;
  std::uint64_t initial;
  std::uint64_t final_mapping;
  std::int64_t swaps;  // -1: routing threw (swap cap exceeded)

  bool operator==(const SabreStream& o) const {
    return fingerprint == o.fingerprint && initial == o.initial &&
           final_mapping == o.final_mapping && swaps == o.swaps;
  }
};

// Prints a mismatch as a literal that can be pasted into the tables below.
std::ostream& operator<<(std::ostream& os, const SabreStream& s) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{0x%016llxull, 0x%016llxull, 0x%016llxull, %lld}",
                static_cast<unsigned long long>(s.fingerprint),
                static_cast<unsigned long long>(s.initial),
                static_cast<unsigned long long>(s.final_mapping),
                static_cast<long long>(s.swaps));
  return os << buf;
}

std::uint64_t mapping_hash(const std::vector<PhysicalQubit>& m) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (PhysicalQubit p : m) {
    h ^= static_cast<std::uint32_t>(p);
    h *= 1099511628211ull;
  }
  return h;
}

SabreStream stream_of(const MappedCircuit& mc) {
  return {mc.circuit.fingerprint(), mapping_hash(mc.initial),
          mapping_hash(mc.final_mapping), count_gates(mc.circuit).swap};
}

SabreStream route_stream(const Circuit& logical, const CouplingGraph& g,
                         const SabreOptions& opts) {
  try {
    return stream_of(sabre_route(logical, g, opts));
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("swap cap exceeded"),
              std::string::npos);
    return {0, 0, 0, -1};
  }
}

/// `cx` CNOTs over `n` qubits, with H, RZ and CPHASE sprinkled between them.
Circuit random_circuit(std::int32_t n, std::int32_t cx, Xoshiro256ss& rng) {
  Circuit c(n);
  const auto qubit = [&] { return static_cast<std::int32_t>(rng.uniform(n)); };
  for (std::int32_t i = 0; i < cx; ++i) {
    const std::uint64_t kind = rng.uniform(8);
    if (kind == 0) c.append(Gate::h(qubit()));
    if (kind == 1) c.append(Gate::rz(qubit(), 0.25));
    const std::int32_t a = qubit();
    std::int32_t b = static_cast<std::int32_t>(rng.uniform(n - 1));
    if (b >= a) ++b;
    c.append(kind == 2 ? Gate::cphase(a, b, 0.5) : Gate::cnot(a, b));
  }
  return c;
}

TEST(SabreGolden, QftOnLineFiveTrials) {
  const SabreStream want{0xdc7c2740fcc988f0ull, 0x8d1fbe340c5008cdull,
                         0x0c4d9a9e1cb5ac79ull, 279};
  EXPECT_EQ(route_stream(qft_logical(24), make_line(24), SabreOptions{}), want);
}

TEST(SabreGolden, QftOnGrid5x5) {
  SabreOptions opts;
  opts.trials = 2;
  const SabreStream want{0xaa5e8d92a10b989bull, 0xd377471158be5091ull,
                         0xca173bbbe2e83779ull, 239};
  EXPECT_EQ(route_stream(qft_logical(25), make_grid(5, 5), opts), want);
}

TEST(SabreGolden, FidelityObjectiveOnHeavyHexDevice) {
  // The builtin device's graph has no closed form, so distances come from
  // generic BFS rows; the objective routes every trial twice, once through
  // the edge-penalty path.
  const DeviceModel dev = DeviceModel::builtin("heavy_hex", 20);
  const CouplingGraph g = dev.build_graph();
  SabreOptions opts;
  opts.trials = 2;
  opts.fidelity_objective = true;
  opts.device = &dev;
  const SabreStream want{0xf2b2ec47e0869242ull, 0xea4c37d6141173adull,
                         0x5b33e6b7ffc7d27dull, 207};
  EXPECT_EQ(route_stream(qft_logical(20), g, opts), want);
}

TEST(SabreGolden, FewerLogicalThanPhysical) {
  // Empty physical slots hold kInvalidQubit, which scores with decay 1.
  Xoshiro256ss rng(0xe11);
  const Circuit c = random_circuit(10, 60, rng);
  SabreOptions opts;
  opts.trials = 2;
  const SabreStream want{0xf1f7536ce38f4b18ull, 0x7a96656058ac6119ull,
                         0xa85bf3c8855dfad7ull, 37};
  EXPECT_EQ(route_stream(c, make_sycamore(4), opts), want);
}

TEST(SabreGolden, RelaxedDag) {
  SabreOptions opts;
  opts.trials = 2;
  opts.use_relaxed_dag = true;
  const SabreStream want{0x6f6eef4cd7ad5073ull, 0x8dc78fd4a19502d7ull,
                         0xad14a863106ec351ull, 27};
  EXPECT_EQ(route_stream(qft_logical(12), make_grid(3, 4), opts), want);
}

TEST(SabreGolden, SingleSeedPass) {
  const SabreStream want{0x26fdf6044d85c27bull, 0x0a0230963de96e01ull,
                         0x240215ecbc07f4cdull, 69};
  const MappedCircuit mc =
      sabre_route_single(qft_logical(16), make_sycamore(4), 42);
  EXPECT_EQ(stream_of(mc), want);
}

/// A connected graph on `p` nodes: a random spanning tree plus extra edges.
CouplingGraph random_connected_graph(std::int32_t p, Xoshiro256ss& rng) {
  CouplingGraph g("random", p);
  for (std::int32_t v = 1; v < p; ++v) {
    g.add_edge(v, static_cast<std::int32_t>(rng.uniform(v)));
  }
  for (std::int32_t k = 0; k < p / 3; ++k) {
    const auto a = static_cast<std::int32_t>(rng.uniform(p));
    const auto b = static_cast<std::int32_t>(rng.uniform(p));
    if (a != b && !g.adjacent(a, b)) g.add_edge(a, b);
  }
  return g;
}

/// A device JSON over a random connected graph with random coupler errors,
/// so the fidelity objective's edge penalty actually steers.
std::string random_device_json(std::int32_t p, Xoshiro256ss& rng) {
  const CouplingGraph g = random_connected_graph(p, rng);
  std::string s = "{\"name\":\"rand\",\"qubits\":" + std::to_string(p) +
                  ",\"edges\":[";
  bool first = true;
  for (PhysicalQubit a = 0; a < p; ++a) {
    for (PhysicalQubit b : g.neighbors(a)) {
      if (b < a) continue;
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s{\"a\":%d,\"b\":%d,\"error\":%.4f}",
                    first ? "" : ",", a, b,
                    0.001 + 0.05 * rng.uniform_double());
      s += buf;
      first = false;
    }
  }
  return s + "]}";
}

TEST(SabreGolden, SeededRandomTable) {
  // Each row: graph family, circuit and options all drawn from the row's
  // seed; families rotate over generic BFS rows, every closed form and a
  // randomly calibrated device under the fidelity objective.
  const SabreStream want[] = {
    {0x6bbcf340c7538614ull, 0x2559eb07280a5102ull, 0xf2b27691dd20ca20ull, 21},
    {0x917a632ca6adca44ull, 0xa947a74f3a952edeull, 0xa08d324f359ec732ull, 7},
    {0xcc7b5a4203652828ull, 0xfcbae9936c7c8508ull, 0x3e55e458180a0014ull, 33},
    {0x0c61fd82dfb3e12eull, 0x28486f3f0e6e4f75ull, 0xa2417234b28edd1dull, 70},
    {0x70582960cfc3d405ull, 0xb8b0e60bfcdc3f00ull, 0x3e5331167ce08c60ull, 13},
    {0x92c75f9c9ca02e35ull, 0xc7b5aacc865c6547ull, 0x4c0ae8840515f83full, 30},
    {0x0502475df40d97ceull, 0xdfa80e5173a9478bull, 0x989632403af60fbdull, 54},
    {0x49fde2d1d24002afull, 0x3afad588cd9ed6f3ull, 0x631bd43395fbbbacull, 13},
    {0xcf19a78d671869a1ull, 0x801e4abf9f847f52ull, 0xf0b66c66ddfd1534ull, 19},
    {0x66da6dd8e83b2809ull, 0x9db006bd672b4d7dull, 0xf16db5dc6fc297d9ull, 84},
    {0x3d638ba2a2d089f6ull, 0x7ca76bb7d1937278ull, 0xbc86bfe758d41ec4ull, 16},
    {0x974e244a649d8d79ull, 0x298fd2036940d967ull, 0x6fa97da25c71990bull, 32},
    {0x714b32724905d696ull, 0xd52c6263b7ca2324ull, 0x83034f52daaffabaull, 22},
    {0x131c916b0e79a262ull, 0x07340327fa98ec65ull, 0x9ddc44588f977991ull, 40},
    {0xa6dc8c3e220eca67ull, 0x62b4d9e93a31e705ull, 0xcf2accc279803b87ull, 59},
    {0x863a0e5d72aa7278ull, 0x25ee167457bd6629ull, 0x2b8646e9c3bd0451ull, 21},
    {0x9893feff59bf5809ull, 0x682ba59d4361e577ull, 0xd9fecf2cef817e18ull, 17},
    {0xb77a9d467d34b83cull, 0xa69478a56b050b4eull, 0x88ee1f3c952f036aull, 39},
  };
  for (std::size_t i = 0; i < std::size(want); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    Xoshiro256ss rng(0x5ab0 + i);
    const auto draw = [&rng](std::int32_t k) {
      return static_cast<std::int32_t>(rng.uniform(k));
    };
    SabreOptions opts;
    opts.seed = 1 + rng.uniform(1000);
    opts.trials = 1 + draw(3);
    constexpr std::int32_t kExtendedSizes[] = {20, 6, 0};
    opts.extended_size = kExtendedSizes[draw(3)];
    std::optional<DeviceModel> dev;
    CouplingGraph g;
    switch (i % 6) {
      case 0:
        g = random_connected_graph(10 + draw(10), rng);
        break;
      case 1: {
        const std::int32_t rows = 2 + draw(4);
        g = make_grid(rows, 3 + draw(3));
        break;
      }
      case 2:
        g = make_heavy_hex(heavy_hex_layout(10 + 5 * draw(3)));
        break;
      case 3:
        g = make_line(8 + draw(12));
        opts.fidelity_objective = true;  // no device: selection only
        break;
      case 4:
        g = make_lattice_surgery_full(3 + draw(2));
        break;
      default:
        dev = DeviceModel::from_json(random_device_json(10 + draw(10), rng));
        g = dev->build_graph();
        opts.fidelity_objective = true;
        opts.device = &*dev;
        break;
    }
    const std::int32_t n = std::max<std::int32_t>(2, g.num_qubits() - draw(4));
    const Circuit c = random_circuit(n, 20 + draw(40), rng);
    EXPECT_EQ(route_stream(c, g, opts), want[i]);
  }
}

TEST(SabreGolden, QftOnHeavyHexDevice64) {
  // Benchmark scale: long runs of blocked steps that execute no gate, on
  // generic BFS rows, with every trial routed plain and steered.
  const DeviceModel dev = DeviceModel::builtin("heavy_hex", 64);
  const CouplingGraph g = dev.build_graph();
  SabreOptions opts;
  opts.trials = 2;
  opts.fidelity_objective = true;
  opts.device = &dev;
  const SabreStream want{0xdc02df90eea84948ull, 0x812723cf6048882dull,
                         0x405ad0dcb60f7035ull, 3878};
  EXPECT_EQ(route_stream(qft_logical(64), g, opts), want);
}

TEST(SabreGolden, RandomCircuitOnHeavyHex64) {
  // The heavy_hex engine's graph for 64 qubits (65 nodes, closed-form
  // distances) under 500 random two-qubit gates.
  Xoshiro256ss rng(0x64500);
  const Circuit c = random_circuit(64, 500, rng);
  SabreOptions opts;
  opts.trials = 1;
  const SabreStream want{0x10d90eccc300bfddull, 0xda3c1db0a3309c7bull,
                         0x0592cf26a4971b1dull, 5179};
  EXPECT_EQ(route_stream(c, make_heavy_hex(heavy_hex_layout(65)), opts), want);
}

TEST(SabreGolden, PinSetFlushMidPass) {
  // 4096 nodes without a closed form: every distance is read from a BFS
  // row. One pass pins more rows than the oracle's row budget, so the
  // pass's distance view flushes its pin set while routing.
  const CouplingGraph g = make_sycamore(64);
  ASSERT_FALSE(g.distances().closed_form());
  SabreOptions opts;
  opts.trials = 1;
  opts.bidirectional_passes = 0;
  const SabreStream want{0xd9d520790495dc58ull, 0xa0245b0200b9a43dull,
                         0xf9bf641f622f99fcull, 4459};
  EXPECT_EQ(route_stream(qft_logical(64), g, opts), want);
  EXPECT_GT(g.distances().bfs_rows_computed(),
            static_cast<std::int64_t>(g.distances().row_budget()));
}

/// Brickwork CX layers over a shuffled register: layer l pairs positions
/// (i, i+1) for i = l mod 2, l mod 2 + 2, ... Each gate past the first layer
/// follows two gates of the layer before, so the extended-set walk from a
/// front of such gates reaches it along both paths and lists it twice.
Circuit brickwork_circuit(std::int32_t n, std::int32_t layers,
                          Xoshiro256ss& rng) {
  std::vector<LogicalQubit> q(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) q[i] = i;
  for (std::int32_t i = n - 1; i > 0; --i) {
    std::swap(q[i], q[rng.uniform(static_cast<std::uint64_t>(i) + 1)]);
  }
  Circuit c(n);
  for (std::int32_t l = 0; l < layers; ++l) {
    for (std::int32_t i = l % 2; i + 1 < n; i += 2) {
      c.append(Gate::cnot(q[i], q[i + 1]));
    }
  }
  return c;
}

TEST(SabreGolden, ExecutedGatePatchTable) {
  // Pinned while a blocked step after an executed gate still rebuilt the
  // step state from scratch. Each row drives one part of the patch that
  // replaced the rebuild: several gates running after one SWAP (lattice
  // surgery, grids), extended sets of 0, 1, 2 and 64 gates (64 outlasts
  // what is left of the DAG near the end of a pass), a walk that lists a
  // gate twice (brickwork), the relaxed DAG, empty physical slots, and the
  // penalty-steered fidelity objective on randomly calibrated devices.
  SabreOptions two;
  two.trials = 2;
  const auto with_ext = [](std::int32_t size) {
    SabreOptions o;
    o.trials = 2;
    o.extended_size = size;
    return o;
  };
  SabreOptions relaxed = two;
  relaxed.use_relaxed_dag = true;

  Xoshiro256ss rng(0x9a7c4);
  const Circuit brick = brickwork_circuit(20, 12, rng);
  const Circuit sparse = random_circuit(20, 120, rng);
  const DeviceModel dev_a = DeviceModel::from_json(random_device_json(30, rng));
  const Circuit dev_circuit = random_circuit(30, 150, rng);
  const DeviceModel dev_b = DeviceModel::from_json(random_device_json(24, rng));
  const CouplingGraph g_a = dev_a.build_graph();
  const CouplingGraph g_b = dev_b.build_graph();
  const auto steered = [](const DeviceModel& dev) {
    SabreOptions o;
    o.trials = 2;
    o.fidelity_objective = true;
    o.device = &dev;
    return o;
  };

  const struct {
    const char* name;
    SabreStream got;
    SabreStream want;
  } rows[] = {
      {"qft16/lattice_full4",
       route_stream(qft_logical(16), make_lattice_surgery_full(4), two),
       {0xc0ad2ab00d41930cull, 0xbe7b8286c9a376ebull,
        0xf329db7bc7edb30bull, 41}},
      {"qft36/lattice_full6",
       route_stream(qft_logical(36), make_lattice_surgery_full(6), two),
       {0x62d712da94636571ull, 0x9c265943c5dc19afull,
        0x910e5401dbb45fd1ull, 281}},
      {"qft30/grid5x6", route_stream(qft_logical(30), make_grid(5, 6), two),
       {0x32056094a323113bull, 0xf3629b94c6f8380eull,
        0x03f9aa23b175b19aull, 355}},
      {"ext0/qft24/line24",
       route_stream(qft_logical(24), make_line(24), with_ext(0)),
       {0xc0ec366d835f681dull, 0x3143abdda8ad5e0full,
        0x6b68dad2b76d3291ull, 612}},
      {"ext1/qft20/grid4x5",
       route_stream(qft_logical(20), make_grid(4, 5), with_ext(1)),
       {0x8c0bb5ba714d602aull, 0x7c954b3ba08f5e9dull,
        0x1e4b91e1c346ac01ull, 190}},
      {"ext2/qft20/heavy_hex20",
       route_stream(qft_logical(20), make_heavy_hex(heavy_hex_layout(20)),
                    with_ext(2)),
       {0x94fbcdea8d103418ull, 0x541efed9b53edd59ull,
        0xed16af585e10c4e3ull, 276}},
      {"ext64/qft24/line24",
       route_stream(qft_logical(24), make_line(24), with_ext(64)),
       {0x9d00557d69ec1319ull, 0xd2503020d3558497ull,
        0x619d8f17e3c0573dull, 494}},
      {"brickwork20/grid4x5", route_stream(brick, make_grid(4, 5), two),
       {0xe5e2d1d7f52dbdfeull, 0xea757ed11dff6ae5ull,
        0xb14b878807ef4459ull, 13}},
      {"relaxed/qft20/grid4x5",
       route_stream(qft_logical(20), make_grid(4, 5), relaxed),
       {0xdb20f84c3a0fb9f2ull, 0xfa66db6334c1297bull,
        0xfb4502a6014f1761ull, 97}},
      {"random20/grid6x6", route_stream(sparse, make_grid(6, 6), two),
       {0x3f5ac9da0b4766f5ull, 0x860d4b357e69c7d6ull,
        0x9a62b6dd202c7a50ull, 131}},
      {"qft20/lattice_full5",
       route_stream(qft_logical(20), make_lattice_surgery_full(5), two),
       {0xdd406c93fa25c458ull, 0xfe801b8a9008487full,
        0xa5a4141ea044d48dull, 72}},
      {"steered/random30/device30",
       route_stream(dev_circuit, g_a, steered(dev_a)),
       {0x75a4a07ca06c3ba4ull, 0x5116b09bd6424a3eull,
        0x7d72eb6f76344152ull, 218}},
      {"steered/qft20/device24",
       route_stream(qft_logical(20), g_b, steered(dev_b)),
       {0x0c13facb7e86fdf4ull, 0x68f5614dd03b592cull,
        0xb19d67b3c7d4a81eull, 181}},
  };
  for (const auto& row : rows) EXPECT_EQ(row.got, row.want) << row.name;
}

TEST(SabreGolden, SwapCapCircuitStillThrows) {
  // The known divergence: an 18-qubit, 35-CNOT circuit (splitmix64 generator
  // seed 1728, drawn as perfbench's swap-cap probe draws it under GCC, which
  // evaluates the RZ qubit before its angle) trips the swap cap on the
  // 20-node heavy-hex line at two trials; one trial routes it. Angles do not
  // affect routing, so only the draws are replayed.
  std::uint64_t state = 1728;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  const auto below = [&next](std::int32_t k) {
    return static_cast<std::int32_t>(next() % static_cast<std::uint64_t>(k));
  };
  Circuit c(18);
  for (int i = 0; i < 35; ++i) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    if (u < 0.25) {
      c.append(Gate::h(below(18)));
    } else if (u < 0.4) {
      const std::int32_t q = below(18);
      next();  // the angle draw
      c.append(Gate::rz(q, 0.5));
    }
    const std::int32_t a = below(18);
    std::int32_t b = below(17);
    if (b >= a) ++b;
    c.append(Gate::cnot(a, b));
  }
  SabreOptions opts;
  opts.trials = 2;
  try {
    sabre_route(c, make_heavy_hex(heavy_hex_layout(20)), opts);
    FAIL() << "expected the swap cap to trip";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "sabre: swap cap exceeded — routing diverged");
  }
  opts.trials = 1;
  EXPECT_NO_THROW(sabre_route(c, make_heavy_hex(heavy_hex_layout(20)), opts));
}

TEST(SabreStats, CountPassesStepsAndTheReturnedSwaps) {
  SabreStats stats;
  SabreOptions opts;
  opts.stats_out = &stats;
  const MappedCircuit mc = sabre_route(qft_logical(24), make_line(24), opts);
  EXPECT_EQ(stats.passes, 5 * (1 + 2 * 2));
  EXPECT_EQ(stats.swaps, count_gates(mc.circuit).swap);
  EXPECT_GE(stats.blocked_steps, stats.swaps);
  EXPECT_GT(stats.rebuilt_steps, 0);
  EXPECT_LT(stats.rebuilt_steps, stats.blocked_steps);

  // The counts are a function of the inputs: a second route repeats them.
  SabreStats again;
  opts.stats_out = &again;
  sabre_route(qft_logical(24), make_line(24), opts);
  EXPECT_EQ(again.blocked_steps, stats.blocked_steps);
  EXPECT_EQ(again.rebuilt_steps, stats.rebuilt_steps);
}

TEST(SabreStats, StepStateIsRebuiltOnlyAfterAnExecutedGate) {
  // One emitting pass: each blocked step emits one SWAP, and a step
  // rebuilds its state exactly when a gate ran since the previous step. So
  // the rebuilt count is the number of maximal SWAP runs in the stream.
  SabreStats stats;
  SabreOptions opts;
  opts.bidirectional_passes = 0;
  opts.stats_out = &stats;
  const MappedCircuit mc =
      sabre_route_single(qft_logical(24), make_grid(4, 6), 3, opts);
  std::int64_t swaps = 0, runs = 0;
  bool after_swap = false;
  for (const Gate& gate : mc.circuit) {
    const bool swap = gate.kind == GateKind::kSwap;
    swaps += swap;
    runs += swap && !after_swap;
    after_swap = swap;
  }
  EXPECT_EQ(stats.passes, 1);
  EXPECT_EQ(stats.blocked_steps, swaps);
  EXPECT_EQ(stats.rebuilt_steps, runs);
  EXPECT_EQ(stats.swaps, swaps);
  EXPECT_LT(runs, swaps);
}

// ------------------------------------------------------------- LNN path ----

TEST(LnnBaseline, SnakeOnLatticeIsValid) {
  for (int m : {3, 4, 5}) {
    const CouplingGraph g = make_lattice_surgery_full(m);
    const auto path = lattice_snake_path(m);
    const MappedCircuit mc = map_qft_on_path(g, path);
    const auto r = check_qft_mapping(mc, g, LatencyModel::lattice(g));
    ASSERT_TRUE(r.ok) << "m=" << m << ": " << r.error;
    EXPECT_EQ(r.counts.cphase, qft_pair_count(m * m));
  }
}

TEST(LnnBaseline, SnakePathUsesOnlySlowLinks) {
  const int m = 4;
  const CouplingGraph g = make_lattice_surgery_full(m);
  const auto path = lattice_snake_path(m);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_EQ(g.link_type(path[i], path[i + 1]), LinkType::kCnotOnly);
  }
}

TEST(LnnBaseline, WeightedDepthWorseThanUnitAware) {
  // §2.3 discussion: on lattice surgery the Hamiltonian-path LNN pays slow
  // SWAPs everywhere; the unit-aware mapper must beat it in weighted depth.
  const int m = 6;
  const CouplingGraph full = make_lattice_surgery_full(m);
  const auto lnn =
      check_qft_mapping(map_qft_on_path(full, lattice_snake_path(m)), full,
                        LatencyModel::lattice(full));
  ASSERT_TRUE(lnn.ok) << lnn.error;

  const CouplingGraph rot = make_lattice_surgery_rotated(m);
  // (compare against our mapper in bench; here assert the LNN weighted depth
  // exceeds its own unit-latency depth by the slow-swap factor's signature)
  const auto lnn_unit = check_qft_mapping(
      map_qft_on_path(full, lattice_snake_path(m)), full, LatencyModel::unit());
  EXPECT_GT(lnn.depth, 3 * lnn_unit.depth);
}

TEST(LnnBaseline, RejectsBrokenPath) {
  const CouplingGraph g = make_line(4);
  EXPECT_THROW(map_qft_on_path(g, {0, 2, 1, 3}), std::invalid_argument);
}

// --------------------------------------------------------------- SATMAP ----

TEST(Satmap, SolvesQft2OnLine) {
  const CouplingGraph g = make_line(2);
  SatmapOptions opts;
  opts.time_budget_seconds = 20.0;
  const SatmapResult r = satmap_route(qft_logical(2), g, opts);
  ASSERT_TRUE(r.solved);
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;
  EXPECT_EQ(r.swaps, 0);
  EXPECT_EQ(chk.depth, 3);  // H, CP, H is depth-optimal
}

TEST(Satmap, SolvesQft3OnLineOptimally) {
  const CouplingGraph g = make_line(3);
  SatmapOptions opts;
  opts.time_budget_seconds = 30.0;
  const SatmapResult r = satmap_route(qft_logical(3), g, opts);
  ASSERT_TRUE(r.solved);
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;
  EXPECT_LT(mapped_equivalence_error(r.mapped), 1e-9);
}

TEST(Satmap, SolvesQft4OnGrid) {
  // The Table 1 "2*2 Sycamore" scale. SATMAP found depth 10 / 3 SWAPs there.
  const CouplingGraph g = make_grid(2, 2);
  SatmapOptions opts;
  opts.time_budget_seconds = 60.0;
  const SatmapResult r = satmap_route(qft_logical(4), g, opts);
  ASSERT_TRUE(r.solved) << "timed out";
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;
  EXPECT_LT(mapped_equivalence_error(r.mapped), 1e-9);
  EXPECT_LE(r.swaps, 4);
}

TEST(Satmap, PinnedOptimaOnLineAndGrid) {
  // Proven optima past the n <= 4 cases above: minimal layers T and
  // minimal SWAP count, plus the verified depth on the line. A solver change
  // may pick a different equally-optimal schedule, but none of these numbers
  // may move. On the 2x3 grid, schedules with the same T and SWAP count
  // verify at depth 16 or 17 depending on which one is extracted, so its
  // depth is not pinned (depth 0 below).
  struct Case {
    const char* name;
    std::int32_t n;
    CouplingGraph graph;
    std::int32_t layers;
    std::int64_t swaps;
    std::int32_t depth;
  };
  const std::vector<Case> cases = {
      {"line5", 5, make_line(5), 9, 6, 14},
      {"line6", 6, make_line(6), 11, 11, 18},
      {"line7", 7, make_line(7), 13, 17, 22},
      {"grid2x3", 6, make_grid(2, 3), 11, 6, 0},
  };
  for (const Case& c : cases) {
    SatmapOptions opts;
    opts.time_budget_seconds = 120.0;
    const SatmapResult r = satmap_route(qft_logical(c.n), c.graph, opts);
    ASSERT_TRUE(r.solved) << c.name << " timed out";
    const auto chk = check_qft_mapping(r.mapped, c.graph);
    ASSERT_TRUE(chk.ok) << c.name << ": " << chk.error;
    EXPECT_EQ(r.layers, c.layers) << c.name;
    EXPECT_EQ(r.swaps, c.swaps) << c.name;
    EXPECT_EQ(chk.counts.swap, c.swaps) << c.name;
    if (c.depth > 0) EXPECT_EQ(chk.depth, c.depth) << c.name;
  }
}

TEST(Satmap, TimesOutOnLargerInstances) {
  // The Table 1 behaviour for >= 16 qubits under a tight budget.
  const CouplingGraph g = make_sycamore(4);
  SatmapOptions opts;
  opts.time_budget_seconds = 0.5;
  const SatmapResult r = satmap_route(qft_logical(16), g, opts);
  EXPECT_FALSE(r.solved);
  EXPECT_TRUE(r.timed_out);
}

TEST(Satmap, ExhaustedLayerBoundIsNotATimeout) {
  // QFT-4's strict critical path is longer than 3 layers, so max_layers = 3
  // leaves nothing to deepen into: the run ends unsolved well inside its
  // budget, and that must not be reported as the Table 1 TLE outcome.
  SatmapOptions opts;
  opts.time_budget_seconds = 60.0;
  opts.max_layers = 3;
  const SatmapResult r = satmap_route(qft_logical(4), make_line(4), opts);
  EXPECT_FALSE(r.solved);
  EXPECT_FALSE(r.timed_out);
  EXPECT_FALSE(r.cancelled);

  MapOptions map_opts;
  map_opts.satmap = opts;
  try {
    map_qft("satmap", 4, map_opts);
    ADD_FAILURE() << "an exhausted layer bound must fail the request";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "satmap: no schedule within the layer bound");
  }
}

TEST(Satmap, IncrementalMatchesMonolithicOnOutcomes) {
  // The production driver against the re-encode-per-probe reference
  // (satmap_route_reference): the same verdicts, minimal T and minimal SWAP
  // count on every instance CI can afford to solve both ways. The
  // production SWAP descent stops at its first UNSAT probe, so one unsound
  // refutation on the shared solver would leave it above the reference
  // optimum.
  struct Case {
    std::int32_t n;
    CouplingGraph graph;
  };
  std::vector<Case> cases = {
      {2, make_line(2)},    {3, make_line(3)},    {4, make_line(4)},
      {4, make_grid(2, 2)}, {5, make_line(5)},    {6, make_line(6)},
      {7, make_line(7)},
      // Spare physical cells (n < np): movement may slide a qubit into an
      // empty neighbour instead of exchanging with an occupant.
      {3, make_grid(2, 2)}, {5, make_grid(2, 3)},
  };
  cases.push_back({6, DeviceModel::load_file(
                          std::string(QFTO_SOURCE_DIR) +
                          "/examples/devices/heavyhex7-calibrated.json")
                          .build_graph()});
  for (const Case& c : cases) {
    SatmapOptions opts;
    opts.time_budget_seconds = 120.0;
    const SatmapResult a = satmap_route(qft_logical(c.n), c.graph, opts);
    const SatmapResult b =
        satmap_route_reference(qft_logical(c.n), c.graph, opts);
    ASSERT_TRUE(a.solved) << "production TLE at n=" << c.n;
    ASSERT_TRUE(b.solved) << "reference TLE at n=" << c.n;
    EXPECT_EQ(a.layers, b.layers) << "minimal T diverged at n=" << c.n;
    EXPECT_EQ(a.swaps, b.swaps) << "minimal SWAPs diverged at n=" << c.n;
    const auto chk_a = check_qft_mapping(a.mapped, c.graph);
    const auto chk_b = check_qft_mapping(b.mapped, c.graph);
    ASSERT_TRUE(chk_a.ok) << chk_a.error;
    ASSERT_TRUE(chk_b.ok) << chk_b.error;
    EXPECT_EQ(chk_a.counts.swap, chk_b.counts.swap);
  }
}

TEST(Satmap, SpareCellSlidesExtractValidCircuits) {
  // Regression: with n < np the model may move a qubit into an *empty*
  // physical cell. extract() used to emit such a slide only when it went
  // toward a higher physical id (the paired-transposition dedup), silently
  // teleporting down-moves and corrupting the mapped circuit.
  for (const bool reference : {false, true}) {
    for (const bool minimize : {true, false}) {
      const CouplingGraph g = make_grid(2, 2);
      SatmapOptions opts;
      opts.time_budget_seconds = 120.0;
      opts.minimize_swaps = minimize;
      const SatmapResult r =
          reference ? satmap_route_reference(qft_logical(3), g, opts)
                    : satmap_route(qft_logical(3), g, opts);
      ASSERT_TRUE(r.solved) << "ref=" << reference << " min=" << minimize;
      const auto chk = check_qft_mapping(r.mapped, g);
      ASSERT_TRUE(chk.ok) << "ref=" << reference << " min=" << minimize
                          << ": " << chk.error;
      EXPECT_LT(mapped_equivalence_error(r.mapped), 1e-9)
          << "ref=" << reference << " min=" << minimize;
    }
  }
}

TEST(Satmap, DpllBackendSolvesTheSmallestInstances) {
  // The reference backend is exponentially weaker, but must agree with CDCL
  // where it reaches: the differential value of a second registered engine.
  sat::register_dpll_backend();
  const CouplingGraph g = make_line(3);
  SatmapOptions opts;
  opts.time_budget_seconds = 60.0;
  opts.solver = "dpll";
  const SatmapResult r = satmap_route(qft_logical(3), g, opts);
  ASSERT_TRUE(r.solved) << "dpll timed out on QFT-3";
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;

  SatmapOptions cdcl_opts;
  cdcl_opts.time_budget_seconds = 60.0;
  const SatmapResult c = satmap_route(qft_logical(3), g, cdcl_opts);
  ASSERT_TRUE(c.solved);
  EXPECT_EQ(r.layers, c.layers);
  EXPECT_EQ(r.swaps, c.swaps);
}

TEST(Satmap, UnknownSolverBackendThrows) {
  SatmapOptions opts;
  opts.solver = "no-such-backend";
  EXPECT_THROW(satmap_route(qft_logical(2), make_line(2), opts),
               std::invalid_argument);
}

TEST(Satmap, SurfacesSolverStats) {
  const CouplingGraph g = make_line(3);
  SatmapOptions opts;
  opts.time_budget_seconds = 60.0;
  sat::SolverStats sink;
  opts.stats_out = &sink;
  const SatmapResult r = satmap_route(qft_logical(3), g, opts);
  ASSERT_TRUE(r.solved);
  EXPECT_GE(r.stats.solve_calls, 2) << "deepening plus swap minimization";
  EXPECT_GT(r.stats.decisions, 0);
  EXPECT_GT(r.stats.clauses, 0);
  EXPECT_EQ(sink.solve_calls, r.stats.solve_calls);
  EXPECT_EQ(sink.conflicts, r.stats.conflicts);
}

TEST(Satmap, DumpCnfExportsTheInFlightInstance) {
  const std::string path = ::testing::TempDir() + "satmap_tle.cnf";
  SatmapOptions opts;
  opts.time_budget_seconds = 0.5;  // certain TLE on QFT-16 / sycamore
  opts.minimize_swaps = false;
  opts.dump_cnf_path = path;
  const SatmapResult r = satmap_route(qft_logical(16), make_sycamore(4), opts);
  EXPECT_TRUE(r.timed_out);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no dump at " << path;
  std::string line;
  bool has_problem_line = false;
  while (std::getline(in, line)) {
    if (line.rfind("p cnf ", 0) == 0) {
      has_problem_line = true;
      break;
    }
  }
  EXPECT_TRUE(has_problem_line) << path << " is not DIMACS";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qfto
