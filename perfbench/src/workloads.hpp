// The three workloads and the in-process request path they share. See
// perfbench/README.md for why each workload exists and which layers it
// exercises or bypasses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support.hpp"

namespace qfto {
class Circuit;
class DeviceModel;
struct MapResult;
}  // namespace qfto

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string self_path;    // this binary, for the set-up probes
  std::string qftmap_path;  // the shipped CLI serve_mixed starts
  std::string out_dir;      // trace file and report land here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed after the value, e.g. the tail percentile
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;                // errors, refusals, wrong outputs
  std::int64_t known_failures = 0;        // SABRE swap-cap divergences
  std::vector<Metric> end_to_end;         // untraced passes
  std::vector<Metric> traced_end_to_end;  // traced passes (trace run only)
  std::vector<Metric> per_layer;          // trace run only
  std::vector<std::string> notes;

  void add(std::vector<Metric>& to, std::string name, double value,
           std::string unit, std::string note = {}) {
    to.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }

  /// Counts one executed request by its row's status.
  void count(const Row& row) {
    ++attempted;
    if (row.status == "known_failure") {
      ++known_failures;
    } else if (row.status != "ok" && row.status != "hit") {
      ++failed;
    }
  }
};

/// Per-layer sums over one pass, keyed by metric name.
using Layers = std::map<std::string, double>;

/// One request executed through the library's public entry points.
struct Executed {
  bool ok = false;
  std::string error;                             // engine error when !ok
  std::string wrong;                             // correctness-gate finding
  std::shared_ptr<const qfto::MapResult> result;  // null when !ok
  double seconds = 0.0;                          // device load + parse + map
};

/// Runs `rq` through map_qft / map_circuit, timing the whole request. With
/// `gate` the output is checked by verifiers independent of the one that
/// produced the verdict (see gate_result). With a live `trace` the standalone
/// layer calls (parse, build_graph, check, fidelity, serialize) run too and
/// their spans and sums land in `trace` and `layers`.
Executed execute_request(const Request& rq, const std::string& request_id,
                         bool gate, Trace* trace, int tid, Layers* layers);

/// serve_response_json for an executed request: the in-process reference
/// the serve_mixed responses must match.
std::string reference_response(const std::string& id, const Executed& ex);

/// OpenQASM 2.0 text of a seeded random circuit: `cx` CNOTs between
/// uniformly drawn distinct qubits, with H and RZ gates sprinkled in.
std::string random_circuit_qasm(Rng& rng, std::int32_t qubits, std::int32_t cx);

/// Body of `perfbench_runner --ready-probe WORKLOAD`: resolves the engines
/// the workload uses, prints "ready" and exits.
int ready_probe(const std::string& workload);

int run_compile_workload(const RunConfig& cfg, Report& report);
int run_serve_workload(const RunConfig& cfg, Report& report);

}  // namespace perfbench
