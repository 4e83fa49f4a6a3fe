#include "service/serve.hpp"

#include "arch/device_model.hpp"
#include "common/fault.hpp"
#include "qasm/qasm.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <thread>

namespace qfto {

namespace {

// ------------------------------------------------- minimal flat-JSON read --
// The protocol needs exactly one shape — a single-level object with string,
// number, bool and null values — so the parser is a few dozen lines instead
// of a JSON library dependency. Every access is length-bounded: the input is
// a string_view over a socket buffer, so neither keyword matching nor number
// parsing may assume a NUL terminator past `end`.

struct JsonValue {
  enum Kind { kString, kNumber, kBool, kNull } kind = kNull;
  std::string str;     // kString payload
  double num = 0.0;    // kNumber payload
  bool flag = false;   // kBool payload
  std::string raw;     // verbatim token, used to echo `id` back
};

struct FlatJsonParser {
  const char* p;
  const char* end;
  std::string error;

  explicit FlatJsonParser(std::string_view s)
      : p(s.data()), end(s.data() + s.size()) {}

  void skip_ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }

  bool fail(const std::string& what) {
    error = what;
    return false;
  }

  /// Remaining input starts with `kw` (bounds-checked *before* comparing —
  /// the tail may be shorter than the keyword and is not NUL-terminated).
  bool match_keyword(const char* kw, std::size_t len) {
    if (static_cast<std::size_t>(end - p) < len) return false;
    if (std::memcmp(p, kw, len) != 0) return false;
    p += len;
    return true;
  }

  /// Appends `cp` (a Unicode scalar value) to `out` as UTF-8.
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  /// Four hex digits after a \u escape.
  bool parse_hex4(std::uint32_t& out) {
    if (end - p < 4) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = *p++;
      std::uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad hex digit in \\u escape");
      }
      out = (out << 4) | digit;
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (p >= end || *p != '"') return fail("expected string");
    ++p;
    out.clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c == '\\') {
        if (p >= end) return fail("dangling escape");
        const char esc = *p++;
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            std::uint32_t cp;
            if (!parse_hex4(cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: a low surrogate must follow, the pair
              // combining into one supplementary-plane scalar.
              if (end - p < 2 || p[0] != '\\' || p[1] != 'u') {
                return fail("unpaired surrogate in \\u escape");
              }
              p += 2;
              std::uint32_t low;
              if (!parse_hex4(low)) return false;
              if (low < 0xDC00 || low > 0xDFFF) {
                return fail("unpaired surrogate in \\u escape");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return fail("unpaired surrogate in \\u escape");
            }
            append_utf8(out, cp);
            continue;  // already appended, possibly multi-byte
          }
          default: return fail("unsupported escape");
        }
      }
      out += c;
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  bool parse_number(JsonValue& out) {
    // strtod reads until it stops recognizing number syntax — on a buffer
    // with no NUL terminator that walk can run past `end`. Copy the token
    // into a bounded, NUL-terminated stack buffer first. 63 chars is far
    // beyond any finite double's shortest spelling, so overflow here is a
    // malformed token, not a lost precision case.
    char buf[64];
    std::size_t len = 0;
    while (p + len < end) {
      const char c = p[len];
      const bool number_char = (c >= '0' && c <= '9') || c == '+' ||
                               c == '-' || c == '.' || c == 'e' || c == 'E';
      if (!number_char) break;
      if (len + 1 >= sizeof(buf)) return fail("number token too long");
      buf[len] = c;
      ++len;
    }
    if (len == 0) return fail("expected value");
    buf[len] = '\0';
    char* num_end = nullptr;
    out.num = std::strtod(buf, &num_end);
    if (num_end != buf + len) return fail("expected value");
    // 1e999 parses as inf; letting it through would feed non-finite
    // deadlines/budgets into duration arithmetic (float-cast UB).
    if (!std::isfinite(out.num)) return fail("non-finite number");
    out.kind = JsonValue::kNumber;
    p += len;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (p >= end) return fail("expected value");
    const char* start = p;
    if (*p == '"') {
      out.kind = JsonValue::kString;
      if (!parse_string(out.str)) return false;
    } else if (match_keyword("true", 4)) {
      out.kind = JsonValue::kBool;
      out.flag = true;
    } else if (match_keyword("false", 5)) {
      out.kind = JsonValue::kBool;
      out.flag = false;
    } else if (match_keyword("null", 4)) {
      out.kind = JsonValue::kNull;
    } else {
      if (!parse_number(out)) return false;
    }
    out.raw.assign(start, p);
    return true;
  }

  bool parse_object(std::map<std::string, JsonValue>& out) {
    skip_ws();
    if (p >= end || *p != '{') return fail("expected '{'");
    ++p;
    skip_ws();
    if (p < end && *p == '}') {
      ++p;
    } else {
      for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (p >= end || *p != ':') return fail("expected ':'");
        ++p;
        JsonValue value;
        if (!parse_value(value)) return false;
        if (!out.emplace(std::move(key), std::move(value)).second) {
          return fail("duplicate key");
        }
        skip_ws();
        if (p < end && *p == ',') {
          ++p;
          continue;
        }
        if (p < end && *p == '}') {
          ++p;
          break;
        }
        return fail("expected ',' or '}'");
      }
    }
    skip_ws();
    if (p != end) return fail("trailing content after object");
    return true;
  }
};

// ------------------------------------------------------------ JSON write --

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

/// The error taxonomy's status word — identical over stdio, TCP and HTTP.
/// Every response carries one of: ok | error | cancelled | timeout | shed
/// ("shed" is minted by the transports' admission control, not by JobStatus).
const char* status_word(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued: return "queued";    // never serialized
    case JobStatus::kRunning: return "running";  // never serialized
    case JobStatus::kDone: return "ok";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kExpired: return "timeout";
    case JobStatus::kFailed: return "error";
  }
  return "error";
}

/// Whether a client should retry the same request. Timeouts and load
/// shedding are transient (more budget / less load can succeed); cancels
/// were asked for and hard errors are deterministic, so retrying burns
/// worker time reproducing the same outcome.
bool status_retryable(const std::string& status) {
  return status == "timeout" || status == "shed";
}

/// Integer field helper: the protocol's counts must be integral. Values
/// outside the exact-double range are rejected *before* the cast — a
/// hostile {"n": 1e19} must come back as an in-band error, not trip the
/// float-cast-overflow UB the sanitizer leg aborts on.
bool as_int(const JsonValue& v, std::int64_t& out) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (v.kind != JsonValue::kNumber) return false;
  if (!(v.num >= -kExact && v.num <= kExact)) return false;
  const auto i = static_cast<std::int64_t>(v.num);
  if (static_cast<double>(i) != v.num) return false;
  out = i;
  return true;
}

}  // namespace

ServeRequest parse_serve_request(std::string_view line) {
  ServeRequest req;
  std::map<std::string, JsonValue> fields;
  FlatJsonParser parser(line);
  if (!parser.parse_object(fields)) {
    req.error = "parse error: " + parser.error;
    return req;
  }

  // Resolve `id` first so every rejection below can still echo it.
  if (const auto it = fields.find("id"); it != fields.end()) {
    if (it->second.kind == JsonValue::kString) {
      req.id = "\"" + json_escape(it->second.str) + "\"";
    } else {
      req.id = it->second.raw;
    }
  }

  // A stats request is its own shape: {"metrics":true} plus an optional id,
  // nothing else — mixing it with job fields is a client bug.
  if (const auto it = fields.find("metrics"); it != fields.end()) {
    if (it->second.kind != JsonValue::kBool || !it->second.flag) {
      req.error = "\"metrics\" must be true";
      return req;
    }
    if (fields.size() > (fields.count("id") != 0 ? 2u : 1u)) {
      req.error = "\"metrics\" requests take no other fields";
      return req;
    }
    req.ok = true;
    req.metrics = true;
    return req;
  }

  std::int64_t n = -1, m = -1;
  for (const auto& [key, value] : fields) {
    std::int64_t i = 0;
    if (key == "id") {
      // handled above
    } else if (key == "engine") {
      if (value.kind != JsonValue::kString) {
        req.error = "\"engine\" must be a string";
        return req;
      }
      req.request.engine = value.str;
    } else if (key == "n") {
      if (!as_int(value, n)) {
        req.error = "\"n\" must be an integer";
        return req;
      }
    } else if (key == "m") {
      if (!as_int(value, m)) {
        req.error = "\"m\" must be an integer";
        return req;
      }
    } else if (key == "priority") {
      if (!as_int(value, i) || i < INT32_MIN || i > INT32_MAX) {
        req.error = "\"priority\" must be a 32-bit integer";
        return req;
      }
      req.submit.priority = static_cast<std::int32_t>(i);
    } else if (key == "deadline") {
      if (value.kind != JsonValue::kNumber || value.num <= 0.0) {
        req.error = "\"deadline\" must be a positive number of seconds";
        return req;
      }
      req.submit.deadline_seconds = value.num;
    } else if (key == "cache") {
      if (value.kind != JsonValue::kBool) {
        req.error = "\"cache\" must be a bool";
        return req;
      }
      req.submit.use_cache = value.flag;
    } else if (key == "verify") {
      if (value.kind != JsonValue::kBool) {
        req.error = "\"verify\" must be a bool";
        return req;
      }
      req.request.options.verify = value.flag;
    } else if (key == "strict_ie") {
      if (value.kind != JsonValue::kBool) {
        req.error = "\"strict_ie\" must be a bool";
        return req;
      }
      req.request.options.strict_ie = value.flag;
    } else if (key == "synced") {
      if (value.kind != JsonValue::kBool) {
        req.error = "\"synced\" must be a bool";
        return req;
      }
      if (value.flag) req.request.options.lattice_phase_offset = 0;
    } else if (key == "trials") {
      if (!as_int(value, i) || i < 1 || i > INT32_MAX) {
        req.error = "\"trials\" must be a positive 32-bit integer";
        return req;
      }
      req.request.options.sabre.trials = static_cast<std::int32_t>(i);
    } else if (key == "seed") {
      if (!as_int(value, i) || i < 0) {
        req.error = "\"seed\" must be a non-negative integer";
        return req;
      }
      req.request.options.sabre.seed = static_cast<std::uint64_t>(i);
    } else if (key == "budget") {
      if (value.kind != JsonValue::kNumber || value.num <= 0.0) {
        req.error = "\"budget\" must be a positive number of seconds";
        return req;
      }
      req.request.options.satmap.time_budget_seconds = value.num;
    } else if (key == "solver") {
      // Backend existence is validated at route time (the registry may have
      // grown), but the obvious typo class fails fast here.
      if (value.kind != JsonValue::kString || value.str.empty()) {
        req.error = "\"solver\" must be a non-empty string";
        return req;
      }
      req.request.options.satmap.solver = value.str;
    } else if (key == "device") {
      // Calibrated device description: a file path, or the device JSON
      // itself inline when the string starts with '{' (after optional
      // leading whitespace). Loaded right here so a malformed description
      // answers in-band with the loader's positioned message instead of a
      // late job failure.
      if (value.kind != JsonValue::kString || value.str.empty()) {
        req.error = "\"device\" must be a non-empty string (file path or "
                    "inline device JSON)";
        return req;
      }
      const std::size_t first = value.str.find_first_not_of(" \t\r\n");
      try {
        DeviceModel dm = (first != std::string::npos &&
                          value.str[first] == '{')
                             ? DeviceModel::from_json(value.str)
                             : DeviceModel::load_file(value.str);
        req.request.options.device =
            std::make_shared<const DeviceModel>(std::move(dm));
        req.device_loaded = true;
      } catch (const std::invalid_argument& e) {
        req.device_error = true;
        req.error = std::string("bad \"device\": ") + e.what();
        return req;
      }
    } else if (key == "objective") {
      if (value.kind == JsonValue::kString && value.str == "depth") {
        req.request.options.objective = Objective::kDepth;
      } else if (value.kind == JsonValue::kString &&
                 value.str == "fidelity") {
        req.request.options.objective = Objective::kFidelity;
      } else {
        req.error = "\"objective\" must be \"depth\" or \"fidelity\"";
        return req;
      }
    } else if (key == "qasm") {
      // General-circuit ingestion: the request maps this OpenQASM 2.0
      // program (newlines arrive as \n escapes) instead of QFT(n). Parse
      // errors surface in-band with from_qasm's line-numbered message.
      if (value.kind != JsonValue::kString || value.str.empty()) {
        req.error = "\"qasm\" must be a non-empty OpenQASM 2.0 string";
        return req;
      }
      try {
        req.request.circuit =
            std::make_shared<const Circuit>(from_qasm(value.str));
      } catch (const std::invalid_argument& e) {
        req.error = std::string("bad \"qasm\": ") + e.what();
        return req;
      }
    } else {
      req.error = "unknown field \"" + json_escape(key) + "\"";
      return req;
    }
  }

  if (req.request.engine.empty()) {
    req.error = "missing \"engine\"";
    return req;
  }
  if (req.request.circuit != nullptr) {
    // The circuit is the size authority; a conflicting explicit size is a
    // client bug we refuse to guess around.
    if (n >= 0 || m >= 0) {
      req.error = "\"qasm\" is mutually exclusive with \"n\"/\"m\"";
      return req;
    }
    n = req.request.circuit->num_qubits();
  }
  if (m > 4096) {  // 4096^2 is already the n ceiling; also guards m*m
    req.error = "\"m\" too large";
    return req;
  }
  if (n < 0 && m > 0) n = m * m;  // square backends take m for convenience
  if (n < 1) {
    req.error = "missing or non-positive \"n\" (or \"m\")";
    return req;
  }
  if (n > 16'777'216) {
    req.error = "\"n\" too large";
    return req;
  }
  req.request.n = static_cast<std::int32_t>(n);
  req.ok = true;
  return req;
}

std::string serve_response_json(const std::string& id, const JobResult& out) {
  std::string s = "{\"id\":" + id;
  if (!out.ok()) {
    const std::string status = status_word(out.status);
    s += ",\"ok\":false,\"status\":\"" + status + "\"";
    s += ",\"retryable\":";
    s += status_retryable(status) ? "true" : "false";
    s += ",\"error\":\"" + json_escape(out.error) + "\"";
    // Failures report queue time too: a fleet shedding deadline-expired work
    // needs to see *where* the budget went (queued vs running).
    s += ",\"queue_seconds\":";
    append_number(s, out.queue_seconds);
    s += "}";
    return s;
  }
  const MapSummary& r = *out.result;
  // A hit shares the result of the cold request that produced it, so its own
  // size and (zero) timings come from the JobResult. A JobResult built around
  // a fresh pipeline result need not fill requested_n: the result's own is
  // this request's.
  const std::int32_t requested_n =
      out.cache_hit ? out.requested_n : r.requested_n;
  const MapTimings timings = out.timings();
  s += ",\"ok\":true,\"status\":\"ok\"";
  s += ",\"engine\":\"" + json_escape(r.engine) + "\"";
  s += ",\"requested_n\":" + std::to_string(requested_n);
  s += ",\"n\":" + std::to_string(r.n);
  s += ",\"physical\":" + std::to_string(r.physical);
  if (r.check.ok) {
    s += ",\"depth\":" + std::to_string(r.check.depth);
    s += ",\"h\":" + std::to_string(r.check.counts.h);
    s += ",\"cphase\":" + std::to_string(r.check.counts.cphase);
    s += ",\"swap\":" + std::to_string(r.check.counts.swap);
    s += ",\"cnot\":" + std::to_string(r.check.counts.cnot);
    s += ",\"log10_fidelity\":";
    append_number(s, r.log10_fidelity);
  }
  if (timings.sat.solve_calls > 0) {
    // SAT-backed engines surface their search effort; analytical engines
    // never ran a solver, so their response shape is unchanged.
    s += ",\"sat_conflicts\":" + std::to_string(timings.sat.conflicts);
    s += ",\"sat_decisions\":" + std::to_string(timings.sat.decisions);
    s += ",\"sat_restarts\":" + std::to_string(timings.sat.restarts);
    s += ",\"sat_solve_calls\":" + std::to_string(timings.sat.solve_calls);
  }
  s += ",\"cache_hit\":";
  s += out.cache_hit ? "true" : "false";
  s += ",\"map_seconds\":";
  append_number(s, timings.map_seconds);
  s += ",\"check_seconds\":";
  append_number(s, timings.check_seconds);
  s += ",\"queue_seconds\":";
  append_number(s, out.queue_seconds);
  s += "}";
  return s;
}

std::string serve_inband_error(const std::string& id,
                               const std::string& status,
                               const std::string& error) {
  return "{\"id\":" + id + ",\"ok\":false,\"status\":\"" +
         json_escape(status) + "\",\"retryable\":" +
         (status_retryable(status) ? "true" : "false") + ",\"error\":\"" +
         json_escape(error) + "\"}";
}

// ------------------------------------------------------------- metrics --

void ServeMetrics::record_request(const ServeRequest& req) {
  if (req.device_error) {
    device_load_errors.fetch_add(1, std::memory_order_relaxed);
  } else if (req.device_loaded) {
    device_loads.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServeMetrics::record_result(const JobResult& out) {
  queue_latency.record(out.queue_seconds);
  if (out.result != nullptr) {
    const MapTimings t = out.timings();
    map_latency.record(t.map_seconds);
    sat_conflicts.fetch_add(t.sat.conflicts, std::memory_order_relaxed);
    sat_decisions.fetch_add(t.sat.decisions, std::memory_order_relaxed);
    sat_restarts.fetch_add(t.sat.restarts, std::memory_order_relaxed);
    sat_solve_calls.fetch_add(t.sat.solve_calls, std::memory_order_relaxed);
  }
}

std::string metrics_json(const MappingService& service,
                         const ServeMetrics& metrics) {
  const ResultCache::Stats cache = service.cache_stats();
  const auto count = [](const std::atomic<std::uint64_t>& c) {
    return std::to_string(c.load(std::memory_order_relaxed));
  };
  std::string s = "{\"ok\":true,\"metrics\":true";
  s += ",\"queue_depth\":" + std::to_string(service.queue_depth());
  s += ",\"running\":" + std::to_string(service.running_count());
  s += ",\"workers\":" + std::to_string(service.num_threads());
  const MappingService::Stats svc = service.stats();
  s += ",\"service\":{\"watchdog_fired\":" + std::to_string(svc.watchdog_fired);
  s += ",\"jobs_wedged\":" + std::to_string(svc.jobs_wedged);
  s += ",\"workers_replaced\":" + std::to_string(svc.workers_replaced) + "}";
  s += ",\"requests\":" + count(metrics.requests);
  s += ",\"responses\":" + count(metrics.responses);
  s += ",\"shed\":" + count(metrics.shed);
  s += ",\"parse_errors\":" + count(metrics.parse_errors);
  s += ",\"in_flight\":" +
       std::to_string(metrics.in_flight.load(std::memory_order_relaxed));
  s += ",\"cache\":{\"hits\":" + std::to_string(cache.hits);
  s += ",\"misses\":" + std::to_string(cache.misses);
  s += ",\"insertions\":" + std::to_string(cache.insertions);
  s += ",\"evictions\":" + std::to_string(cache.evictions);
  s += ",\"expired\":" + std::to_string(cache.expired);
  s += ",\"load_quarantined\":" + std::to_string(cache.load_quarantined);
  s += ",\"entries\":" + std::to_string(cache.entries);
  s += ",\"capacity\":" + std::to_string(cache.capacity) + "}";
  s += ",\"devices\":{\"loaded\":" + count(metrics.device_loads);
  s += ",\"load_errors\":" + count(metrics.device_load_errors) + "}";
  s += ",\"sat\":{\"conflicts\":" + count(metrics.sat_conflicts);
  s += ",\"decisions\":" + count(metrics.sat_decisions);
  s += ",\"restarts\":" + count(metrics.sat_restarts);
  s += ",\"solve_calls\":" + count(metrics.sat_solve_calls) + "}";
  const auto histogram = [&s](const char* name,
                              const net::LatencyHistogram& h) {
    s += ",\"";
    s += name;
    s += "\":{\"count\":" + std::to_string(h.count());
    s += ",\"p50\":";
    append_number(s, h.quantile(0.5));
    s += ",\"p99\":";
    append_number(s, h.quantile(0.99));
    s += "}";
  };
  histogram("map_seconds", metrics.map_latency);
  histogram("queue_seconds", metrics.queue_latency);
  s += "}";
  return s;
}

// ------------------------------------------------------------- session --

ServeSession::Pending ServeSession::admit(std::string_view payload,
                                          bool http) {
  metrics_.requests.fetch_add(1, std::memory_order_relaxed);
  ServeRequest req = parse_serve_request(payload);
  metrics_.record_request(req);
  Pending entry;
  entry.id = req.id;
  if (http) entry.http_status = "200 OK";
  if (!req.ok) {
    metrics_.parse_errors.fetch_add(1, std::memory_order_relaxed);
    JobResult rejected;
    rejected.status = JobStatus::kFailed;
    rejected.error = req.error;
    entry.body = serve_response_json(req.id, rejected);
    if (http) entry.http_status = "400 Bad Request";
    return entry;
  }
  if (req.metrics) {
    entry.metrics = true;
    return entry;
  }
  // Admission control. Both bounds are advisory point-in-time reads — two
  // racing readers may both admit at the edge — which is fine: the bound
  // exists to stop unbounded queue growth, not to be an exact semaphore.
  const std::string shed = [&]() -> std::string {
    if (!limits_.shed) return {};
    if (QFTO_FAULT_POINT("serve.admit.shed")) {
      return "injected fault: admission rejected; retry later";
    }
    if (limits_.max_inflight > 0 &&
        metrics_.in_flight.load(std::memory_order_relaxed) >=
            static_cast<std::int64_t>(limits_.max_inflight)) {
      return "server at max in-flight jobs (" +
             std::to_string(limits_.max_inflight) + "); retry later";
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (limits_.max_pending > 0 && jobs_queued_ >= limits_.max_pending) {
      return "connection at max pending requests (" +
             std::to_string(limits_.max_pending) +
             "); read responses before sending more";
    }
    return {};
  }();
  if (!shed.empty()) {
    metrics_.shed.fetch_add(1, std::memory_order_relaxed);
    entry.body = serve_inband_error(req.id, "shed", shed);
    if (http) entry.http_status = "503 Service Unavailable";
    return entry;
  }
  entry.handle = service_.submit(std::move(req.request), req.submit);
  metrics_.in_flight.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

bool ServeSession::push(Pending entry) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return dead_ || queue_.size() < limits_.backlog; });
    if (!dead_) {
      if (entry.handle.valid()) ++jobs_queued_;
      queue_.push_back(std::move(entry));
      lock.unlock();
      cv_.notify_all();
      return true;
    }
  }
  // The writer is gone; nobody will drain this entry.
  if (entry.handle.valid()) {
    entry.handle.cancel();
    metrics_.in_flight.fetch_sub(1, std::memory_order_relaxed);
  }
  return false;
}

void ServeSession::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool ServeSession::drain(const Sink& sink) {
  for (;;) {
    Pending entry;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return true;  // closed and drained
      entry = std::move(queue_.front());
      queue_.pop_front();
      if (entry.handle.valid()) {
        --jobs_queued_;
        writing_ = entry.handle;
      }
    }
    cv_.notify_all();  // the reader may be waiting on the backlog bound

    if (entry.handle.valid()) {
      const JobResult result = entry.handle.wait();
      metrics_.record_result(result);
      metrics_.in_flight.fetch_sub(1, std::memory_order_relaxed);
      entry.body = serve_response_json(entry.id, result);
      std::lock_guard<std::mutex> lock(mutex_);
      writing_ = JobHandle();
    } else if (entry.metrics) {
      entry.body = metrics_json(service_, metrics_);
    }
    if (!sink(entry.body, entry.http_status)) {
      // Dead client: fail the reader's pushes, drop the backlog and cancel
      // its jobs — the pool must not grind through work nobody can receive.
      std::deque<Pending> orphans;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        dead_ = true;
        orphans.swap(queue_);
        jobs_queued_ = 0;
      }
      cv_.notify_all();
      for (Pending& orphan : orphans) {
        if (orphan.handle.valid()) {
          orphan.handle.cancel();
          metrics_.in_flight.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      return false;
    }
    metrics_.responses.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServeSession::cancel_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Pending& entry : queue_) {
    if (entry.handle.valid()) entry.handle.cancel();
  }
  if (writing_.valid()) writing_.cancel();
}

// ---------------------------------------------------------- stdio loop --

int run_serve_loop(std::istream& in, std::ostream& out,
                   MappingService& service) {
  // Reader/writer split: the reader blocks in getline while the writer
  // emits each response — in request order, flushed per line — the moment
  // its job finishes. A single-threaded loop could only emit on the next
  // input line, deadlocking interactive clients that wait for a response
  // before sending the next request.
  ServeMetrics metrics;
  ServeSession session(service, metrics, ServeSession::Limits{});
  bool alive = true;
  std::thread writer([&] {
    alive = session.drain([&out](const std::string& body, const char*) {
      out << body << '\n' << std::flush;
      return static_cast<bool>(out);
    });
  });
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!session.push(session.admit(line))) break;
  }
  session.close();
  writer.join();
  return alive ? 0 : 1;
}

}  // namespace qfto
