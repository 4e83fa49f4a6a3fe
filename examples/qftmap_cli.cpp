// qftmap — command-line QFT kernel compiler over the MapperPipeline registry.
//
//   qftmap --list
//   qftmap --arch lnn       --n 64            [--out kernel.qasm]
//   qftmap --arch heavy_hex --n 50
//   qftmap --arch sycamore  --m 6   [--strict-ie]
//   qftmap --arch lattice   --m 12  [--synced]
//   qftmap --arch sabre     --n 16  [--trials T]
//   qftmap --arch satmap    --n 5   [--budget SECONDS] [--solver BACKEND]
//                                   [--dump-cnf FILE.cnf]
//   qftmap --arch sycamore  --input circuit.qasm
//   qftmap --device examples/devices/grid9-noisy.json --input circuit.qasm
//                                   [--objective fidelity]
//   ... [--aqft K] [--cnot-basis] [--quiet]
//
// Every engine is selected by its registry name (`--list` enumerates them);
// the pipeline builds the native coupling graph, maps, and verifies with the
// static checker. Small instances are additionally simulated. Output can be
// written as OpenQASM 2.0.
//
// `--device FILE.json` loads a calibrated device description
// (arch/device_model.hpp documents the JSON schema): the routed engines map
// onto its coupling graph, verification charges its latency table, and the
// report gains the calibrated `log10 fidelity` line. Defaults `--arch` to
// `sabre` — a device file, not a topology name, then selects the scenario.
// `--objective fidelity` makes SABRE optimize expected log-success instead
// of depth.
//
// `--input FILE.qasm` switches to general-circuit ingestion: the file is
// parsed with from_qasm and routed onto the selected architecture through
// MapperPipeline::run_circuit (structured engines contribute their native
// topology and route with SABRE; satmap runs its SAT router), then verified
// gate-for-gate by the general checker — any OpenQASM 2.0 producer can feed
// this, not just our own QFT generator.
//
// SATMAP runs on a pluggable SAT backend (`--list-solvers` enumerates the
// registry; default "cdcl"). `--dump-cnf` exports the instance in flight
// when the run ended — most usefully a TLE'd probe — as DIMACS CNF for
// replay in external solvers.
//
// `--serve` switches to the long-running mode: newline-delimited JSON
// requests on stdin are dispatched through the async MappingService
// (priority queue, per-job deadlines, result cache) and JSON responses
// stream to stdout — see src/service/serve.hpp for the protocol.
//
// `--serve --listen HOST:PORT` serves the same protocol over TCP to any
// number of concurrent clients (plus a minimal HTTP adapter: GET /metrics,
// POST /map) — see src/service/net_server.hpp. `--max-inflight` bounds
// admitted jobs (excess is shed in-band); it, `--max-pending` and
// `--drain-seconds` are a usage error without `--listen`, since the stdio
// loop never sheds and has no drain budget. `--cache-file FILE` loads the
// result cache at startup and saves it crash-safely (temp file + atomic
// rename) after every graceful drain, so a warmed cache survives restarts.
// SIGTERM (or stdin EOF on an interactive stdin) drains gracefully: stop
// accepting, finish in-flight work, save the cache, then exit 0.
//
// `--faults SPEC` arms the fault-injection framework (same grammar as the
// QFTO_FAULTS environment variable — see src/common/fault.hpp) for chaos
// drills against a live server.
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>

#include "arch/device_model.hpp"
#include "circuit/stats.hpp"
#include "circuit/transforms.hpp"
#include "common/fault.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "qasm/qasm.hpp"
#include "sat/federation/ipasir_bridge.hpp"
#include "sat/solver_interface.hpp"
#include "service/mapping_service.hpp"
#include "service/net_server.hpp"
#include "service/serve.hpp"
#include "verify/equivalence.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --arch ENGINE (--n N | --m M | --input FILE.qasm) "
      "[--device FILE.json] [--objective depth|fidelity] "
      "[--out FILE] [--strict-ie] "
      "[--synced] [--trials T] [--budget SECONDS] [--solver BACKEND] "
      "[--solver-plugin [NAME=]LIB.so] [--dump-cnf FILE] [--aqft K] "
      "[--cnot-basis] "
      "[--quiet]\n       %s --serve [--threads T] [--cache-entries N] "
      "[--cache-ttl-seconds S] "
      "[--listen HOST:PORT] [--max-inflight N] [--max-pending N] "
      "[--drain-seconds S] [--cache-file FILE] [--faults SPEC]\n"
      "       %s --list | --list-solvers\n",
      argv0, argv0, argv0);
  return 2;
}

// Numeric flag ranges. kMaxN is the pipeline's own size ceiling.
constexpr double kMaxN = 16'777'216;
constexpr double kMaxM = 4096;  // kMaxM^2 == kMaxN
constexpr double kMaxInt = 2'147'483'647;
constexpr double kMaxThreads = 1024;
constexpr double kMaxCount = 1e12;
constexpr double kMaxSeconds = 1e9;
constexpr double kMinBudget = 1e-6;

/// Parses all of `text` as a number in [lo, hi] into `out`. An empty or
/// missing value, leading blanks, trailing text ("9x", "2.5" for an integer
/// flag) and out-of-range values (NaN included) are rejected, so a typo
/// never becomes a silent 0 or a truncated count.
template <typename T>
bool parse_number(const char* text, double lo, double hi, T& out) {
  if (text == nullptr || *text == '\0' ||
      std::isspace(static_cast<unsigned char>(*text))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_integral_v<T>) {
    const long long v = std::strtoll(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || !(v >= lo && v <= hi)) {
      return false;
    }
    out = static_cast<T>(v);
  } else {
    const double v = std::strtod(text, &end);
    if (*end != '\0' || errno == ERANGE || !(v >= lo && v <= hi)) {
      return false;
    }
    out = static_cast<T>(v);
  }
  return true;
}

// SIGTERM/SIGINT handler target. request_stop() only stores a lock-free
// atomic, so calling it here is async-signal-safe.
qfto::net::NetServer* g_server = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

/// stdin-EOF drain only applies when stdin is a real peer (terminal, pipe,
/// socket). A detached daemon launched with `</dev/null` would otherwise
/// read instant EOF and drain before serving anything.
bool stdin_is_watchable() {
  if (isatty(STDIN_FILENO)) return true;
  struct stat st{};
  if (fstat(STDIN_FILENO, &st) != 0) return false;
  return S_ISFIFO(st.st_mode) || S_ISSOCK(st.st_mode);
}

/// Loads `path` into the service cache; a missing file is a cold start, not
/// an error. Returns false only on a malformed file.
bool load_cache_file(qfto::MappingService& service, const std::string& path) {
  std::ifstream in(path);
  if (!in) return true;  // cold start
  std::string error;
  if (!service.cache().load(in, &error)) {
    std::fprintf(stderr, "warning: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

/// Saves crash-safely (temp file + fsync + atomic rename — see
/// ResultCache::save_file); on failure the previous file is untouched.
void save_cache_file(qfto::MappingService& service, const std::string& path) {
  std::string error;
  if (!service.cache().save_file(path, &error)) {
    std::fprintf(stderr, "warning: %s\n", error.c_str());
  }
}

int list_engines() {
  const auto& pipeline = qfto::MapperPipeline::global();
  for (const auto& name : pipeline.engine_names()) {
    std::printf("%-14s %s\n", name.c_str(),
                pipeline.at(name).description().c_str());
  }
  return 0;
}

int list_solvers() {
  // Provenance per backend so operators can audit what a replica loaded:
  // built-ins against the binary, plugins against their shared-object path
  // and IPASIR signature string.
  for (const auto& row : qfto::sat::backend_provenance()) {
    if (row.plugin) {
      std::printf("%-14s plugin    %s  [%s]\n", row.name.c_str(),
                  row.path.c_str(), row.signature.c_str());
    } else {
      std::printf("%-14s built-in\n", row.name.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qfto;
  std::string arch, out_path, input_path;
  std::int32_t n = -1, m = -1, aqft = -1;
  MapOptions opts;
  bool cnot_basis = false, quiet = false, serve = false;
  MappingService::Options service_opts;
  net::NetServer::Options net_opts;
  std::string listen_spec, cache_file;
  const char* socket_only_flag = nullptr;  // a TCP limit flag, if one was given

  // IPASIR plugins from the environment load before any argument acts (so
  // `--solver`, `--list-solvers` and `--serve` all see them). A broken spec
  // is an operator error — fail loudly, never map with a silently-missing
  // backend.
  try {
    sat::load_solver_plugins_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "QFTO_SOLVER_PLUGINS: %s\n", e.what());
    return 2;
  }

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (a == "--list") {
      return list_engines();
    } else if (a == "--list-solvers") {
      return list_solvers();
    } else if (a == "--serve") {
      serve = true;
    } else if (a == "--threads") {
      if (!parse_number(next(), 0, kMaxThreads, service_opts.num_threads)) {
        return usage(argv[0]);
      }
    } else if (a == "--cache-entries") {
      if (!parse_number(next(), 0, kMaxCount, service_opts.cache_capacity)) {
        return usage(argv[0]);
      }
    } else if (a == "--cache-ttl-seconds") {
      if (!parse_number(next(), 0, kMaxSeconds,
                        service_opts.cache_ttl_seconds)) {
        return usage(argv[0]);
      }
    } else if (a == "--listen") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      listen_spec = v;
    } else if (a == "--max-inflight") {
      socket_only_flag = argv[i];
      if (!parse_number(next(), 0, kMaxCount, net_opts.max_inflight)) {
        return usage(argv[0]);
      }
    } else if (a == "--max-pending") {
      socket_only_flag = argv[i];
      if (!parse_number(next(), 0, kMaxCount,
                        net_opts.max_pending_per_conn)) {
        return usage(argv[0]);
      }
    } else if (a == "--drain-seconds") {
      socket_only_flag = argv[i];
      if (!parse_number(next(), 0, kMaxSeconds, net_opts.drain_seconds)) {
        return usage(argv[0]);
      }
    } else if (a == "--cache-file") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cache_file = v;
    } else if (a == "--faults") {
      // Fault injection for chaos drills: same spec grammar as QFTO_FAULTS
      // (e.g. "net.send.fail=prob:0.1;cache.save.rename=once"). Rejecting a
      // bad spec up front beats silently running an un-chaosed drill.
      const char* v = next();
      if (!v) return usage(argv[0]);
      std::string error;
      if (!fault::compiled_in()) {
        std::fprintf(stderr,
                     "--faults: fault injection compiled out "
                     "(rebuild with -DQFTO_FAULTS=ON)\n");
        return 2;
      }
      if (!fault::arm_spec(v, &error)) {
        std::fprintf(stderr, "--faults: %s\n", error.c_str());
        return 2;
      }
    } else if (a == "--arch") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      arch = v;
      if (arch == "heavyhex") arch = "heavy_hex";  // legacy spelling
    } else if (a == "--device") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      try {
        opts.device = std::make_shared<const DeviceModel>(
            DeviceModel::load_file(v));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "--device: %s\n", e.what());
        return 2;
      }
    } else if (a == "--objective") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "depth") == 0) {
        opts.objective = Objective::kDepth;
      } else if (std::strcmp(v, "fidelity") == 0) {
        opts.objective = Objective::kFidelity;
      } else {
        return usage(argv[0]);
      }
    } else if (a == "--n") {
      if (!parse_number(next(), 1, kMaxN, n)) return usage(argv[0]);
    } else if (a == "--m") {
      if (!parse_number(next(), 1, kMaxM, m)) return usage(argv[0]);
    } else if (a == "--aqft") {
      if (!parse_number(next(), 1, kMaxInt, aqft)) return usage(argv[0]);
    } else if (a == "--trials") {
      if (!parse_number(next(), 1, kMaxInt, opts.sabre.trials)) {
        return usage(argv[0]);
      }
    } else if (a == "--budget") {
      // solve() reads a zero budget as unlimited; a budget must be positive.
      if (!parse_number(next(), kMinBudget, kMaxSeconds,
                        opts.satmap.time_budget_seconds)) {
        return usage(argv[0]);
      }
    } else if (a == "--solver") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.satmap.solver = v;
    } else if (a == "--solver-plugin") {
      // Loaded immediately, so it works in front of --list-solvers and
      // --solver on the same command line. Repeatable.
      const char* v = next();
      if (!v) return usage(argv[0]);
      try {
        sat::load_solver_plugin(v);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "--solver-plugin: %s\n", e.what());
        return 2;
      }
    } else if (a == "--dump-cnf") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.satmap.dump_cnf_path = v;
    } else if (a == "--input") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      input_path = v;
    } else if (a == "--out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      out_path = v;
    } else if (a == "--strict-ie") {
      opts.strict_ie = true;
    } else if (a == "--synced") {
      opts.lattice_phase_offset = 0;
    } else if (a == "--cnot-basis") {
      cnot_basis = true;
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_only_flag != nullptr && listen_spec.empty()) {
    // The limits belong to the socket front-end; accepting them silently
    // elsewhere would suggest a bound that is not there.
    std::fprintf(stderr, "%s applies only to --serve --listen\n",
                 socket_only_flag);
    return usage(argv[0]);
  }
  if (serve) {
    MappingService service(service_opts);
    if (!cache_file.empty()) load_cache_file(service, cache_file);
    int rc = 0;
    if (listen_spec.empty()) {
      rc = run_serve_loop(std::cin, std::cout, service);
    } else {
      net::HostPort hp;
      std::string error;
      if (!net::parse_host_port(listen_spec, hp, error)) {
        std::fprintf(stderr, "--listen: %s\n", error.c_str());
        return 2;
      }
      net_opts.host = hp.host;
      net_opts.port = hp.port;
      try {
        net::NetServer server(service, net_opts);
        g_server = &server;
        std::signal(SIGTERM, handle_stop_signal);
        std::signal(SIGINT, handle_stop_signal);
        // The smoke scripts and humans both need the resolved address —
        // port 0 binds an ephemeral port.
        std::fprintf(stderr, "listening on %s:%u\n", server.host().c_str(),
                     static_cast<unsigned>(server.port()));
        std::thread stdin_watch;
        if (stdin_is_watchable()) {
          stdin_watch = std::thread([&server] {
            // Drain when the operator closes our stdin (^D, supervisor pipe
            // teardown) — the stdio-serve convention, kept over TCP.
            while (std::cin.get() != std::char_traits<char>::eof()) {
            }
            server.request_stop();
          });
          stdin_watch.detach();  // blocked in read(); exits with the process
        }
        server.run();
        server.stop_and_drain();
        g_server = nullptr;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
      }
    }
    if (!cache_file.empty()) save_cache_file(service, cache_file);
    return rc;
  }
  // A device file alone selects the scenario: route onto it with SABRE.
  if (arch.empty() && opts.device) arch = "sabre";
  if (arch.empty()) return usage(argv[0]);
  if (n <= 0 && m > 0) n = m * m;  // square backends take --m for convenience
  // --input is the size authority for general circuits; mixing it with an
  // explicit size is ambiguous, so it's rejected like a missing size.
  if (input_path.empty() ? n <= 0 : n > 0) return usage(argv[0]);

  try {
    Circuit input;  // parsed --input circuit; empty on the QFT path
    MapResult result;
    if (!input_path.empty()) {
      std::ifstream in(input_path);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", input_path.c_str());
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      input = from_qasm(text.str());
      result = map_circuit(arch, input, opts);
    } else {
      result = map_qft(arch, n, opts);
    }
    if (!result.check.ok) {
      std::fprintf(stderr, "INTERNAL ERROR — verification failed: %s\n",
                   result.check.error.c_str());
      return 1;
    }
    double sim_err = -1.0;
    if (result.mapped.num_physical() <= 14) {
      sim_err = mapped_equivalence_error(
          result.mapped, 4, 0x51ab5,
          input_path.empty() ? nullptr : &input);
    }

    if (aqft > 0) {
      result.mapped.circuit = prune_small_rotations(result.mapped.circuit, aqft);
    }
    if (cnot_basis) {
      result.mapped.circuit = decompose_to_cnot(result.mapped.circuit);
    }

    if (!quiet) {
      std::printf("engine         : %s\n", result.engine.c_str());
      if (!input_path.empty()) {
        std::printf("input          : %s (%zu gates over %d qubits)\n",
                    input_path.c_str(), input.size(), input.num_qubits());
      }
      std::printf("backend        : %s (%d physical qubits)\n",
                  result.graph.name().c_str(), result.graph.num_qubits());
      if (opts.device) {
        std::printf("device         : %s (%d qubits, %zu edges, "
                    "fingerprint %016llx)\n",
                    opts.device->name().c_str(), opts.device->num_qubits(),
                    opts.device->edges().size(),
                    static_cast<unsigned long long>(
                        opts.device->fingerprint()));
      }
      if (result.n != result.requested_n) {
        std::printf("size           : requested %d, mapped native %d\n",
                    result.requested_n, result.n);
      }
      std::printf("depth          : %lld cycles (%.2f per qubit)\n",
                  static_cast<long long>(result.check.depth),
                  static_cast<double>(result.check.depth) /
                      result.graph.num_qubits());
      std::printf("gates          : %s\n",
                  result.check.counts.to_string().c_str());
      std::printf("log10 fidelity : %.4f%s\n", result.log10_fidelity,
                  opts.device ? " (calibrated)" : "");
      std::printf("compile time   : %.4f s (+%.4f s verify)\n",
                  result.timings.map_seconds, result.timings.check_seconds);
      if (result.timings.sat.solve_calls > 0) {
        std::printf("sat search     : %lld conflicts, %lld decisions, "
                    "%lld restarts over %lld solve calls\n",
                    static_cast<long long>(result.timings.sat.conflicts),
                    static_cast<long long>(result.timings.sat.decisions),
                    static_cast<long long>(result.timings.sat.restarts),
                    static_cast<long long>(result.timings.sat.solve_calls));
      }
      if (result.timings.sabre.passes > 0) {
        const SabreStats& st = result.timings.sabre;
        std::printf("sabre search   : %lld passes, %lld blocked steps "
                    "(%lld after an executed gate), %lld candidate deltas "
                    "priced, %lld swaps\n",
                    static_cast<long long>(st.passes),
                    static_cast<long long>(st.blocked_steps),
                    static_cast<long long>(st.rebuilt_steps),
                    static_cast<long long>(st.deltas_computed),
                    static_cast<long long>(st.swaps));
      }
      if (sim_err >= 0) std::printf("simulation err : %.2e\n", sim_err);
      if (aqft > 0 || cnot_basis) {
        std::printf("post-transform : %s\n",
                    count_gates(result.mapped.circuit).to_string().c_str());
      }
    }
    if (!out_path.empty()) {
      std::ofstream f(out_path);
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
      }
      write_qasm(f, result.mapped);
      f.close();
      if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
      }
      if (!quiet) std::printf("wrote          : %s\n", out_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
