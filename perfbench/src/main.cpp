// perfbench_runner: runs one workload and prints its rows, every metric by
// name and unit, and as the last line one JSON object
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) that BENCHMARK.json lists. perfbench/run.py builds this
// binary and invokes it; see perfbench/README.md.
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;

// The metrics BENCHMARK.json gates on (see perfbench/README.md for why the
// other printed metrics are not gated).
const char* const kEndToEnd[] = {"setup_s",     "compile_s",  "peak_rss_mb",
                                 "depth_total", "swap_total",
                                 "neg_log10_fidelity_sum"};
const char* const kPerLayer[] = {
    "pipeline.run_s",    "arch.build_graph_s", "verify.check_s",
    "verify.fidelity_s", "service.parse_s",    "service.serialize_s",
    "mapper.gates_per_s"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload qft_device_scale|"
               "routed_baselines|serve_mixed --seed N --seconds S --trace 0|1 "
               "--qftmap PATH --out-dir DIR\n"
               "       perfbench_runner --ready-probe WORKLOAD\n");
  return 2;
}

void print_metrics(const char* tag, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-28s %.9g %s%s%s\n", tag, m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  # ",
                m.note.c_str());
  }
}

const Metric* find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) return usage();
    ++i;
    if (a == "--ready-probe") {
      return perfbench::ready_probe(v);
    } else if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (a == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--qftmap") {
      cfg.qftmap_path = v;
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else {
      return usage();
    }
  }
  char self[PATH_MAX];
  if (realpath(argv[0], self) == nullptr || cfg.qftmap_path.empty() ||
      cfg.out_dir.empty() || cfg.seconds <= 0.0) {
    return usage();
  }
  cfg.self_path = self;

  Report report;
  int rc = 0;
  if (cfg.workload == "qft_device_scale" ||
      cfg.workload == "routed_baselines") {
    rc = perfbench::run_compile_workload(cfg, report);
  } else if (cfg.workload == "serve_mixed") {
    rc = perfbench::run_serve_workload(cfg, report);
  } else {
    return usage();
  }
  if (rc != 0) return rc;

  const double fail_ratio =
      static_cast<double>(report.failed + report.known_failures) /
      static_cast<double>(std::max<std::int64_t>(report.attempted, 1));
  report.add(report.end_to_end, "fail_ratio", fail_ratio, "ratio",
             std::to_string(report.failed) + " failed + " +
                 std::to_string(report.known_failures) +
                 " known failures of " + std::to_string(report.attempted) +
                 " attempted");
  print_metrics("metric", report.end_to_end);
  if (cfg.trace) {
    print_metrics("traced_metric", report.traced_end_to_end);
    const Metric* plain = find(report.end_to_end, "compile_s");
    const Metric* traced = find(report.traced_end_to_end, "compile_s");
    if (plain != nullptr && traced != nullptr && plain->value > 0.0) {
      std::printf("tracing_overhead compile_s %+.2f%%\n",
                  100.0 * (traced->value / plain->value - 1.0));
    }
    print_metrics("layer", report.per_layer);
  }
  for (const auto& note : report.notes) std::printf("note %s\n", note.c_str());

  const bool correct = report.failed == 0;
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(report.attempted);
  json += ",\"failed\":" + std::to_string(report.failed);
  json += ",\"metrics\":{";
  bool first = true;
  const auto emit = [&](const std::vector<Metric>& from, const char* name) {
    const Metric* m = find(from, name);
    if (m == nullptr) {
      std::fprintf(stderr, "perfbench: metric %s missing\n", name);
      return false;
    }
    json += std::string(first ? "" : ",") + "\"" + name + "\":{\"value\":" +
            perfbench::json_number(m->value) + ",\"unit\":\"" + m->unit +
            "\"}";
    first = false;
    return true;
  };
  bool complete = true;
  if (cfg.trace) {
    for (const char* name : kPerLayer) complete &= emit(report.per_layer, name);
  } else {
    for (const char* name : kEndToEnd) complete &= emit(report.end_to_end, name);
  }
  json += "}}";
  if (!complete) return 1;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
