// Shared plumbing for the benchmark runner: the seeded generator, timing and
// order statistics, a minimal JSON reader, the span recorder behind the
// traced run, child processes, and the request/row types every workload
// shares. Nothing here links against the mapping code; the workloads do.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds.
double now_s();

/// splitmix64: the benchmark's own generator, so inputs depend only on the
/// seed and never on the library's PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi);
  /// Uniform real in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// The highest percentile of a fixed ladder (50, 90, 99, 99.9) that still
/// has at least ten samples beyond it. `percentile` is 0 when even the
/// median has fewer than ten samples above it.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail_latency(const std::vector<double>& v);

/// Minimal JSON value: enough to read the service's response lines and the
/// /metrics document. Numbers keep their raw token so comparisons are exact.
struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool flag = false;
  double num = 0.0;
  std::string raw;  // number token or string contents
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  const Json* get(const std::string& key) const;
  double number(const std::string& key, double fallback = 0.0) const;
  std::string text(const std::string& key) const;
};
/// Parses one JSON document; false on any syntax error.
bool parse_json(const std::string& text, Json& out);
std::string json_escape(const std::string& s);
/// Shortest decimal that round-trips, as JSON.
std::string json_number(double v);

/// In-memory span recorder for the traced run. Spans are kept until the
/// run ends and then written as Chrome trace-event JSON (Perfetto and
/// chrome://tracing read it). Thread-safe; disabled recorders cost one
/// branch per span.
class Trace {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t id = 0;
    std::int64_t parent = 0;  // 0: root
    std::string request;
    int tid = 0;
    std::string args;  // extra JSON members, "" or "\"k\":v,..."
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  std::int64_t next_id();
  void add(Span span);
  std::vector<Span> spans() const;

  /// Per span name: total duration minus the part covered by child spans.
  std::map<std::string, double> self_times() const;
  bool write_chrome_json(const std::string& path, double origin) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::int64_t next_id_ = 1;
};

/// RAII span: starts on construction, records on finish() or destruction.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name, std::int64_t parent,
             std::string request, int tid = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return span_.id; }
  /// Appends `"key":value` to the span's args (value is raw JSON).
  void arg(const std::string& key, const std::string& value);
  /// Ends the span now; returns its duration in seconds.
  double finish();

 private:
  Trace* trace_;
  Trace::Span span_;
  bool done_ = false;
};

/// A child process started with posix_spawn. The destructor kills and reaps
/// a child that is still running, so no process outlives the runner.
class Child {
 public:
  /// Starts argv[0] (a path) with stdin from /dev/null; stdout and stderr
  /// are piped back when requested, inherited otherwise.
  static std::unique_ptr<Child> spawn(const std::vector<std::string>& argv,
                                      bool pipe_stdout, bool pipe_stderr);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reads one line from the piped stdout (which=1) or stderr (which=2);
  /// false on EOF or after `timeout_s`.
  bool read_line(int which, std::string& line, double timeout_s);
  /// Sends `sig`, then reaps; returns the child's peak RSS in KiB.
  long stop(int sig, double grace_s);
  /// Waits for a normal exit; returns the exit status (or -1).
  int wait_exit(double timeout_s);

 private:
  Child() = default;
  pid_t pid_ = -1;
  int fd_[3] = {-1, -1, -1};
  std::string buf_[3];
};

/// One request, in the service's own vocabulary. Only these fields are ever
/// sent: engine, n, qasm, device, objective, trials, seed, budget.
struct Request {
  std::string engine;
  std::int32_t n = 0;        // QFT size; 0 for a general circuit
  std::string qasm;          // OpenQASM 2.0 text of a general circuit
  std::string circuit_id;    // label of the general circuit
  std::string device_json;   // inline calibrated device
  std::string device_id;     // label of the device
  std::string objective;     // "" (engine default) or "fidelity"
  std::int32_t trials = 0;   // 0: engine default
  std::int64_t seed = -1;    // -1: engine default
  double budget = 0.0;       // SATMAP seconds; 0: engine default
  // Expectations checked by the correctness gate.
  std::int64_t expect_depth = -1;
  std::int64_t expect_swaps = -1;

  bool is_circuit() const { return !qasm.empty(); }
  /// "n=96" or the circuit label, plus the device label if any.
  std::string label() const;
  /// The request as one serve-protocol line.
  std::string line(const std::string& id) const;
};

/// Result of one executed request as the report shows it.
struct Row {
  std::string workload;
  std::string request_id;
  std::string engine;
  std::string label;
  double seconds = 0.0;
  std::int64_t depth = 0;
  std::int64_t swaps = 0;
  double log10_fidelity = 0.0;
  /// ok | hit | known_failure | error | wrong
  std::string status;
  std::string detail;  // error text or the correctness mismatch
};
void print_row(const Row& row);

/// SABRE's swap-cap divergence: the one failure the workloads keep on
/// purpose (see perfbench/README.md).
bool is_known_failure(const std::string& error);

/// Peak RSS of this process in MiB.
double self_peak_rss_mb();

}  // namespace perfbench
