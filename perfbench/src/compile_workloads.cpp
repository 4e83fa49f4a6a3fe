// qft_device_scale and routed_baselines: one request at a time through the
// library's public entry points (map_qft / map_circuit), in this process.
// Also home of the request path and correctness gate serve_mixed's
// in-process reference reuses.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "arch/device_model.hpp"
#include "circuit/qft_spec.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "qasm/qasm.hpp"
#include "service/serve.hpp"
#include "verify/circuit_checker.hpp"
#include "verify/equivalence.hpp"
#include "verify/fidelity.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qfto::MapResult;

bool same_counts(const qfto::GateCounts& a, const qfto::GateCounts& b) {
  return a.h == b.h && a.x == b.x && a.rz == b.rz && a.cphase == b.cphase &&
         a.swap == b.swap && a.cnot == b.cnot;
}

/// The correctness gate: re-verifies `r` with a checker other than the one
/// that produced r.check, plus the statevector for small results and the
/// SAT-proven optimum for SATMAP. Returns "" when every check agrees.
std::string gate_result(const Request& rq, const MapResult& r,
                        const qfto::Circuit* logical,
                        const qfto::DeviceModel* device, Trace* trace,
                        std::int64_t parent, const std::string& id, int tid,
                        Layers* layers) {
  if (!r.check.ok) return "pipeline checker rejected: " + r.check.error;
  const qfto::LatencyModel latency =
      device != nullptr
          ? device->latency_model(r.graph)
          : qfto::MapperPipeline::global().at(rq.engine).latency_model(r.graph);
  qfto::QftCheckResult again;
  {
    ScopedSpan span(trace, "verify.check", parent, id, tid);
    if (logical != nullptr) {
      // General circuits: the gate-for-gate matcher against the input.
      again = qfto::check_circuit_mapping(r.mapped, *logical, r.graph, latency);
    } else if (rq.engine == "sabre") {
      // SABRE keeps the logical QFT's gate order, so the general matcher
      // against qft_logical(n) is an independent second opinion on the
      // streaming QFT checker the pipeline used.
      again = qfto::check_circuit_mapping(r.mapped, qfto::qft_logical(r.n),
                                          r.graph, latency);
    } else {
      // Structured engines were audited while emitting; re-check the whole
      // result with the streaming checker. (SATMAP results are small enough
      // for the statevector check below, which is the independent one.)
      again = qfto::check_qft_mapping(r.mapped, r.graph, latency);
    }
    if (layers != nullptr) (*layers)["verify.check_s"] += span.finish();
  }
  if (!again.ok) return "independent re-check failed: " + again.error;
  if (again.depth != r.check.depth || !same_counts(again.counts, r.check.counts)) {
    return "independent re-check disagrees: depth " +
           std::to_string(again.depth) + " vs " + std::to_string(r.check.depth);
  }
  if (r.mapped.num_logical() <= 10) {
    const double err =
        qfto::mapped_equivalence_error(r.mapped, 4, 0x51ab5, logical);
    if (!(err < 1e-6)) {
      return "statevector mismatch: error " + json_number(err);
    }
  }
  if (rq.expect_depth >= 0 && (r.check.depth != rq.expect_depth ||
                               r.check.counts.swap != rq.expect_swaps)) {
    return "not the SAT-proven optimum: depth " +
           std::to_string(r.check.depth) + " swaps " +
           std::to_string(r.check.counts.swap) + ", expected " +
           std::to_string(rq.expect_depth) + "/" +
           std::to_string(rq.expect_swaps);
  }
  return {};
}

}  // namespace

Executed execute_request(const Request& rq, const std::string& request_id,
                         bool gate, Trace* trace, int tid, Layers* layers) {
  const bool traced = trace != nullptr && trace->enabled();
  Executed ex;
  ScopedSpan root(trace, "request", 0, request_id, tid);
  root.arg("engine", "\"" + json_escape(rq.engine) + "\"");
  root.arg("input", "\"" + json_escape(rq.label()) + "\"");
  Layers scratch;
  Layers& acc = layers != nullptr ? *layers : scratch;
  if (traced) {
    const std::string line = rq.line(request_id);
    ScopedSpan span(trace, "service.parse", root.id(), request_id, tid);
    const qfto::ServeRequest parsed = qfto::parse_serve_request(line);
    acc["service.parse_s"] += span.finish();
    if (!parsed.ok) ex.wrong = "request line rejected: " + parsed.error;
  }

  qfto::MapOptions opts;
  if (rq.trials > 0) opts.sabre.trials = rq.trials;
  if (rq.seed >= 0) opts.sabre.seed = static_cast<std::uint64_t>(rq.seed);
  if (rq.budget > 0.0) opts.satmap.time_budget_seconds = rq.budget;
  if (rq.objective == "fidelity") opts.objective = qfto::Objective::kFidelity;
  std::shared_ptr<const qfto::DeviceModel> device;
  std::shared_ptr<const qfto::Circuit> logical;
  double run_seconds = 0.0;
  const double t0 = now_s();
  try {
    if (!rq.device_json.empty()) {
      ScopedSpan span(trace, "arch.device_load", root.id(), request_id, tid);
      device = std::make_shared<const qfto::DeviceModel>(
          qfto::DeviceModel::from_json(rq.device_json));
      opts.device = device;
      acc["arch.device_load_s"] += span.finish();
    }
    if (rq.is_circuit()) {
      ScopedSpan span(trace, "qasm.parse", root.id(), request_id, tid);
      logical = std::make_shared<const qfto::Circuit>(qfto::from_qasm(rq.qasm));
      acc["qasm.parse_s"] += span.finish();
    }
    ScopedSpan span(trace, "pipeline.run", root.id(), request_id, tid);
    MapResult r = logical != nullptr
                      ? qfto::map_circuit(rq.engine, *logical, opts)
                      : qfto::map_qft(rq.engine, rq.n, opts);
    ex.result = std::make_shared<const MapResult>(std::move(r));
    run_seconds = span.finish();
    ex.seconds = now_s() - t0;
    ex.ok = true;
  } catch (const std::exception& e) {
    ex.seconds = now_s() - t0;
    ex.error = e.what();
    return ex;
  }
  const MapResult& r = *ex.result;
  acc["pipeline.run_s"] += run_seconds;
  acc["mapper." + rq.engine + ".map_s"] += r.timings.map_seconds;
  acc["mapper.map_s"] += r.timings.map_seconds;
  acc["mapper.gates"] += static_cast<double>(r.mapped.circuit.size());
  acc["sat.conflicts"] += static_cast<double>(r.timings.sat.conflicts);
  acc["sat.decisions"] += static_cast<double>(r.timings.sat.decisions);
  acc["sat.solve_calls"] += static_cast<double>(r.timings.sat.solve_calls);

  if (gate || traced) {
    const std::string finding =
        gate_result(rq, r, logical.get(), device.get(), trace, root.id(),
                    request_id, tid, &acc);
    if (ex.wrong.empty()) ex.wrong = finding;
  }
  if (!traced) return ex;

  // Standalone calls into the layers the pipeline runs without a timer of
  // its own, on the same inputs, so their cost can be attributed.
  double build_seconds = 0.0, fidelity_seconds = 0.0;
  {
    const qfto::MapperEngine& engine =
        qfto::MapperPipeline::global().at(rq.engine);
    const std::int32_t size = engine.native_size(
        logical != nullptr ? logical->num_qubits() : rq.n);
    ScopedSpan span(trace, "arch.build_graph", root.id(), request_id, tid);
    const qfto::CouplingGraph g = engine.build_graph(size, opts);
    build_seconds = span.finish();
    if (g.num_qubits() != r.graph.num_qubits() && ex.wrong.empty()) {
      ex.wrong = "standalone build_graph disagrees on the register size";
    }
  }
  {
    ScopedSpan span(trace, "verify.fidelity", root.id(), request_id, tid);
    const double f =
        device != nullptr
            ? qfto::log10_fidelity(r.mapped.circuit, *device,
                                   device->latency_model(r.graph))
            : qfto::log10_fidelity(r.check.counts, r.check.depth,
                                   qfto::NoiseModel{});
    fidelity_seconds = span.finish();
    if (f != r.log10_fidelity && ex.wrong.empty()) {
      ex.wrong = "standalone fidelity disagrees: " + json_number(f) + " vs " +
                 json_number(r.log10_fidelity);
    }
  }
  {
    ScopedSpan span(trace, "service.serialize", root.id(), request_id, tid);
    const std::string line = reference_response("\"x\"", ex);
    acc["service.serialize_s"] += span.finish();
    root.arg("response_bytes", std::to_string(line.size()));
  }
  acc["arch.build_graph_s"] += build_seconds;
  acc["verify.fidelity_s"] += fidelity_seconds;
  acc["pipeline.unattributed_s"] += run_seconds - r.timings.map_seconds -
                                    r.timings.check_seconds - build_seconds -
                                    fidelity_seconds;
  root.arg("map_seconds", json_number(r.timings.map_seconds));
  root.arg("check_seconds", json_number(r.timings.check_seconds));
  return ex;
}

std::string reference_response(const std::string& id, const Executed& ex) {
  qfto::JobResult out;
  if (ex.ok) {
    out.status = qfto::JobStatus::kDone;
    out.result = ex.result;
  } else {
    out.status = qfto::JobStatus::kFailed;
    out.error = ex.error;
  }
  return qfto::serve_response_json(id, out);
}

std::string random_circuit_qasm(Rng& rng, std::int32_t qubits,
                                std::int32_t cx) {
  std::string s = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
                  std::to_string(qubits) + "];\n";
  char buf[96];
  for (std::int32_t i = 0; i < cx; ++i) {
    const double u = rng.unit();
    if (u < 0.25) {
      std::snprintf(buf, sizeof buf, "h q[%lld];\n",
                    static_cast<long long>(rng.range(0, qubits - 1)));
      s += buf;
    } else if (u < 0.4) {
      std::snprintf(buf, sizeof buf, "rz(%.6f) q[%lld];\n",
                    rng.unit() * 6.283185307179586,
                    static_cast<long long>(rng.range(0, qubits - 1)));
      s += buf;
    }
    const std::int64_t a = rng.range(0, qubits - 1);
    std::int64_t b = rng.range(0, qubits - 2);
    if (b >= a) ++b;
    std::snprintf(buf, sizeof buf, "cx q[%lld],q[%lld];\n",
                  static_cast<long long>(a), static_cast<long long>(b));
    s += buf;
  }
  return s;
}

namespace {

/// JSON text of a builtin device description (arch/device_model.hpp), so a
/// request can carry it inline.
std::string builtin_device_json(const std::string& topology, std::int32_t n) {
  const qfto::DeviceModel dm = qfto::DeviceModel::builtin(topology, n);
  std::string s = "{\"name\":\"" + json_escape(dm.name()) +
                  "\",\"qubits\":" + std::to_string(dm.num_qubits()) +
                  ",\"error_1q\":[";
  for (std::size_t i = 0; i < dm.qubits().size(); ++i) {
    s += (i ? "," : "") + json_number(dm.qubits()[i].error_1q);
  }
  s += "],\"coherence_cycles\":[";
  for (std::size_t i = 0; i < dm.qubits().size(); ++i) {
    s += (i ? "," : "") + json_number(dm.qubits()[i].coherence_cycles);
  }
  s += "],\"edges\":[";
  for (std::size_t i = 0; i < dm.edges().size(); ++i) {
    const qfto::DeviceEdge& e = dm.edges()[i];
    s += std::string(i ? "," : "") + "{\"a\":" + std::to_string(e.a) +
         ",\"b\":" + std::to_string(e.b) +
         ",\"latency\":" + std::to_string(e.latency) +
         ",\"swap_latency\":" + std::to_string(e.swap_latency) +
         ",\"error\":" + json_number(e.error_2q) + "}";
  }
  return s + "]}";
}

/// Spawns `argv` `count` times and returns each time from exec until the
/// child printed "ready" on stdout; empty when a probe failed.
std::vector<double> probe_setup(const std::vector<std::string>& argv,
                                int count) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    const double t0 = now_s();
    auto child = Child::spawn(argv, true, false);
    std::string line;
    if (child == nullptr || !child->read_line(1, line, 60.0) ||
        line != "ready") {
      return {};
    }
    out.push_back(now_s() - t0);
    if (child->wait_exit(30.0) != 0) return {};
  }
  return out;
}

// Generator seed of the known-failure circuit (see known_failure_probe).
constexpr std::uint64_t kKnownFailureSeed = 1728;

const std::vector<std::string> kDeviceScaleEngines = {
    "lnn",     "heavy_hex", "heavy_hex_device", "sycamore",
    "lattice", "grid",      "lnn_baseline"};
const std::vector<std::string> kRoutedEngines = {"sabre", "heavy_hex", "grid",
                                                 "satmap"};

/// qft_device_scale: one QFT per structured engine at N ~ 2048. The seed
/// shifts N by up to 31 qubits on the engines that take any size; the
/// square engines get 46^2 - jitter, which always snaps to 2116, so no seed
/// lands on a different square.
std::vector<Request> device_scale_requests(std::uint64_t seed) {
  Rng rng(seed * 0x100000001B3ull + 11);
  const auto jitter = static_cast<std::int32_t>(rng.range(0, 31));
  std::vector<Request> out;
  for (const auto& engine : kDeviceScaleEngines) {
    Request rq;
    rq.engine = engine;
    const bool square = engine == "sycamore" || engine == "lattice" ||
                        engine == "grid" || engine == "lnn_baseline";
    rq.n = (square ? 46 * 46 : 2048) - jitter;
    out.push_back(rq);
  }
  return out;
}

/// routed_baselines: SABRE on the QFT and on seeded general circuits, and
/// SATMAP on the two lines whose optimum is known. The seed draws the two
/// general circuits.
std::vector<Request> routed_requests(std::uint64_t seed) {
  Rng rng(seed * 0x100000001B3ull + 22);
  std::vector<Request> out;
  // The SABRE QFTs keep the engine's default seed: their depth swings by a
  // third from seed to seed, which would swamp the quality totals.
  Request q;
  q.engine = "sabre";
  q.n = 96;
  out.push_back(q);

  Request dev;
  dev.engine = "sabre";
  dev.n = 64;
  dev.device_json = builtin_device_json("heavy_hex", 64);
  dev.device_id = "heavy_hex-65";
  dev.objective = "fidelity";
  out.push_back(dev);

  // One trial: each trial is another chance for SABRE's swap cap to trip,
  // and at the default five it trips on about one seed in twelve, which
  // would swing the quality totals from seed to seed. One trial diverged on
  // none of 100 seeds. The known failure rides along separately
  // (known_failure_probe).
  Request hh;
  hh.engine = "heavy_hex";
  hh.qasm = random_circuit_qasm(rng, 64, 500);
  hh.circuit_id = "rand64x500";
  hh.trials = 1;
  out.push_back(hh);

  Request grid;
  grid.engine = "grid";
  grid.qasm = random_circuit_qasm(rng, 100, 700);
  grid.circuit_id = "rand100x700";
  out.push_back(grid);

  // Budgets are several times the solve time so that a loaded machine
  // still returns the proven optimum rather than a truncated search.
  Request sat7;
  sat7.engine = "satmap";
  sat7.n = 7;
  sat7.budget = 10.0;
  sat7.expect_depth = 22;
  sat7.expect_swaps = 17;
  out.push_back(sat7);

  Request sat8 = sat7;
  sat8.n = 8;
  sat8.budget = 20.0;
  sat8.expect_depth = 26;
  sat8.expect_swaps = 24;
  out.push_back(sat8);
  return out;
}

/// The known SABRE divergence: this 18-qubit, 35-CNOT circuit trips the
/// swap cap on heavy_hex with two trials (one trial routes it). Fixed, not
/// seeded, so every run carries it.
Request known_failure_probe() {
  Rng rng(kKnownFailureSeed);
  Request rq;
  rq.engine = "heavy_hex";
  rq.qasm = random_circuit_qasm(rng, 18, 35);
  rq.circuit_id = "rand18x35-swapcap";
  rq.trials = 2;
  return rq;
}

struct PassResult {
  bool traced = false;
  std::vector<double> latencies;  // per request, in list order
  Layers layers;
};

struct Signature {
  std::int64_t depth = 0, swaps = 0, gates = 0;
  double fidelity = 0.0;
  bool operator==(const Signature& o) const {
    return depth == o.depth && swaps == o.swaps && gates == o.gates &&
           fidelity == o.fidelity;
  }
};

void add_sum_metrics(Report& report, const std::vector<Row>& rows,
                     std::vector<Metric>& to) {
  double depth = 0, swaps = 0, fidelity = 0;
  for (const Row& r : rows) {
    if (r.status != "ok") continue;
    depth += static_cast<double>(r.depth);
    swaps += static_cast<double>(r.swaps);
    fidelity += r.log10_fidelity;
  }
  report.add(to, "depth_total", depth, "cycles");
  report.add(to, "swap_total", swaps, "count");
  report.add(to, "log10_fidelity_sum", fidelity, "log10");
  report.add(to, "neg_log10_fidelity_sum", -fidelity, "log10");
}

Row row_for(const std::string& workload, const std::string& id,
            const Request& rq, const Executed& ex) {
  Row row;
  row.workload = workload;
  row.request_id = id;
  row.engine = rq.engine;
  row.label = rq.label();
  row.seconds = ex.seconds;
  if (!ex.ok) {
    row.status = is_known_failure(ex.error) ? "known_failure" : "error";
    row.detail = ex.error;
  } else {
    row.depth = ex.result->check.depth;
    row.swaps = ex.result->check.counts.swap;
    row.log10_fidelity = ex.result->log10_fidelity;
    row.status = ex.wrong.empty() ? "ok" : "wrong";
    row.detail = ex.wrong;
  }
  return row;
}

/// compile_s sums each request's median time over the passes, so one slow
/// request in one pass does not move it; latency_p50_s is the median of
/// those per-request medians.
void add_pass_metrics(Report& report, const std::vector<PassResult>& passes,
                      bool traced, std::size_t requests,
                      std::vector<Metric>& to) {
  std::vector<std::vector<double>> per_request(requests);
  std::vector<double> pooled;
  std::size_t count = 0;
  for (const PassResult& p : passes) {
    if (p.traced != traced) continue;
    ++count;
    for (std::size_t i = 0; i < requests; ++i) {
      per_request[i].push_back(p.latencies[i]);
      pooled.push_back(p.latencies[i]);
    }
  }
  if (count == 0) return;
  std::vector<double> medians;
  double compile = 0.0;
  for (const auto& times : per_request) {
    medians.push_back(median(times));
    compile += medians.back();
  }
  report.add(to, "compile_s", compile, "s",
             "sum of per-request medians over " + std::to_string(count) +
                 " passes");
  report.add(to, "throughput_rps", static_cast<double>(requests) / compile,
             "1/s");
  report.add(to, "latency_p50_s", median(medians), "s",
             "median of " + std::to_string(requests) + " per-request medians");
  const Tail tail = tail_latency(pooled);
  if (tail.percentile > 0.0) {
    report.add(to, "latency_tail_s", tail.value, "s",
               "p" + json_number(tail.percentile) + " of " +
                   std::to_string(tail.samples) + " samples");
  } else {
    report.add(to, "latency_tail_s", quantile(pooled, 1.0), "s",
               "max of " + std::to_string(tail.samples) +
                   " samples (too few for a percentile with 10 beyond it)");
  }
}

}  // namespace

int ready_probe(const std::string& workload) {
  // What a process needs before its first request: the engine registry
  // (static initialisation) and the engines this workload calls.
  const qfto::MapperPipeline& pipeline = qfto::MapperPipeline::global();
  const std::vector<std::string>& engines =
      workload == "qft_device_scale" ? kDeviceScaleEngines : kRoutedEngines;
  for (const auto& e : engines) {
    if (pipeline.find(e) == nullptr) return 1;
  }
  std::printf("ready\n");
  std::fflush(stdout);
  return 0;
}

int run_compile_workload(const RunConfig& cfg, Report& report) {
  const bool device_scale = cfg.workload == "qft_device_scale";
  const std::vector<Request> requests = device_scale
                                            ? device_scale_requests(cfg.seed)
                                            : routed_requests(cfg.seed);

  // Set-up is sampled between passes, so its median sees the same machine
  // as the passes do. Two warm-up starts are discarded.
  const std::vector<std::string> probe = {cfg.self_path, "--ready-probe",
                                          cfg.workload};
  if (probe_setup(probe, 2).empty()) {
    std::fprintf(stderr, "perfbench: set-up probe failed\n");
    return 1;
  }
  std::vector<double> setup;

  Trace trace(cfg.trace);
  const double origin = now_s();
  std::vector<PassResult> passes;
  std::vector<Row> first_rows;
  std::vector<Signature> first_sig(requests.size());
  double last_pass = 0.0;
  while (true) {
    PassResult pass;
    // A traced run alternates untraced and traced passes, so both sets of
    // end-to-end numbers come from the same run and the same inputs.
    pass.traced = cfg.trace && passes.size() % 2 == 1;
    const bool first = passes.empty();
    const double pass_start = now_s();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Request& rq = requests[i];
      const std::string id = "p" + std::to_string(passes.size()) + "-r" +
                             std::to_string(i);
      const Executed ex =
          execute_request(rq, id, first, pass.traced ? &trace : nullptr, 0,
                          pass.traced ? &pass.layers : nullptr);
      Row row = row_for(cfg.workload, id, rq, ex);
      if (ex.ok) {
        const MapResult& r = *ex.result;
        const Signature sig{r.check.depth, r.check.counts.swap,
                            static_cast<std::int64_t>(r.mapped.circuit.size()),
                            r.log10_fidelity};
        if (first) {
          first_sig[i] = sig;
        } else if (!(sig == first_sig[i]) && row.status == "ok") {
          row.status = "wrong";
          row.detail = "output differs from the first pass";
        }
        // General circuits on a structured engine's graph are routed by
        // SABRE too (MapperEngine::map_circuit's default).
        if (rq.engine == "sabre" || rq.is_circuit()) {
          const std::string kind = rq.is_circuit()           ? "general"
                                   : !rq.device_json.empty() ? "device_fidelity"
                                                             : "qft";
          pass.layers["baseline.sabre." + kind + "_s"] += ex.seconds;
          pass.layers["baseline.sabre.swaps"] +=
              static_cast<double>(r.check.counts.swap);
        }
      }
      if (rq.engine == "satmap") {
        pass.layers["baseline.satmap.route_s"] += ex.seconds;
        // CHC-COMP scoring: solved runs cost their time, unsolved ones twice
        // the limit.
        pass.layers["sat.par2_total_s"] +=
            ex.ok ? ex.seconds : 2.0 * rq.budget;
        pass.layers["sat.instances"] += 1.0;
        pass.layers["sat.solved"] += ex.ok ? 1.0 : 0.0;
      }
      report.count(row);
      pass.latencies.push_back(ex.seconds);
      print_row(row);
      if (first) first_rows.push_back(row);
    }
    last_pass = now_s() - pass_start;
    passes.push_back(std::move(pass));
    const std::vector<double> starts = probe_setup(probe, 4);
    if (starts.empty()) {
      std::fprintf(stderr, "perfbench: set-up probe failed\n");
      return 1;
    }
    setup.insert(setup.end(), starts.begin(), starts.end());
    const double elapsed = now_s() - origin;
    if (passes.size() >= 2 && elapsed + last_pass > cfg.seconds) break;
  }

  if (!device_scale) {
    // The known failure rides every run, outside the timed passes.
    const Request probe = known_failure_probe();
    const Executed ex = execute_request(probe, "known-failure", true, nullptr,
                                        0, nullptr);
    Row row = row_for(cfg.workload, "known-failure", probe, ex);
    if (row.status == "ok") row.detail = "known failure no longer reproduces";
    report.count(row);
    print_row(row);
  }

  auto& e2e = report.end_to_end;
  report.add(e2e, "setup_s", median(setup), "s",
             "median of " + std::to_string(setup.size()) +
                 " process starts to ready, four after each pass");
  add_pass_metrics(report, passes, false, requests.size(), e2e);
  report.add(e2e, "peak_rss_mb", self_peak_rss_mb(), "MB");
  add_sum_metrics(report, first_rows, e2e);
  if (!cfg.trace) return 0;

  add_pass_metrics(report, passes, true, requests.size(),
                   report.traced_end_to_end);
  // Per-layer numbers: the median over traced passes of each pass's sum.
  std::map<std::string, std::vector<double>> per_pass;
  for (const PassResult& p : passes) {
    if (!p.traced) continue;
    for (const auto& [name, value] : p.layers) per_pass[name].push_back(value);
  }
  const auto layer = [&](const std::string& name) {
    const auto it = per_pass.find(name);
    return it == per_pass.end() ? 0.0 : median(it->second);
  };
  auto& pl = report.per_layer;
  for (const char* name :
       {"pipeline.run_s", "pipeline.unattributed_s", "arch.build_graph_s",
        "verify.check_s", "verify.fidelity_s", "service.parse_s",
        "service.serialize_s"}) {
    report.add(pl, name, layer(name), "s");
  }
  report.add(pl, "mapper.gates_per_s",
             layer("mapper.gates") / std::max(layer("mapper.map_s"), 1e-12),
             "1/s");
  if (device_scale) {
    for (const auto& e : kDeviceScaleEngines) {
      report.add(pl, "mapper." + e + ".map_s", layer("mapper." + e + ".map_s"),
                 "s");
    }
  } else {
    report.add(pl, "arch.device_load_s", layer("arch.device_load_s"), "s");
    report.add(pl, "qasm.parse_s", layer("qasm.parse_s"), "s");
    for (const char* name :
         {"baseline.sabre.qft_s", "baseline.sabre.general_s",
          "baseline.sabre.device_fidelity_s", "baseline.satmap.route_s"}) {
      report.add(pl, name, layer(name), "s");
    }
    report.add(pl, "baseline.sabre.swaps", layer("baseline.sabre.swaps"),
               "count");
    report.add(pl, "sat.conflicts", layer("sat.conflicts"), "count");
    report.add(pl, "sat.decisions", layer("sat.decisions"), "count");
    report.add(pl, "sat.solve_calls", layer("sat.solve_calls"), "count");
    report.add(pl, "sat.solved", layer("sat.solved"), "count",
               "of " + json_number(layer("sat.instances")));
    report.add(pl, "sat.par2_s",
               layer("sat.par2_total_s") /
                   std::max(layer("sat.instances"), 1.0),
               "s");
  }
  for (const auto& [name, self] : trace.self_times()) {
    report.notes.push_back("self_time " + name + " " + json_number(self) +
                           " s");
  }
  const std::string path = cfg.out_dir + "/trace-" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".json";
  if (trace.write_chrome_json(path, origin)) {
    report.notes.push_back("trace_file " + path);
  }
  return 0;
}

}  // namespace perfbench
