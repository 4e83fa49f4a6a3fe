// serve_mixed: a closed loop over TCP against a child
// `qftmap --serve --listen 127.0.0.1:0`. The client side is plain POSIX
// socket code of its own, independent of the repository's net:: helpers,
// so a transport change on the server side cannot change the load.
//
// Every pass starts a fresh server (whose exec-to-accept time is one set-up
// sample), plays the same seeded request stream through one connection,
// sending each request only after the previous reply arrived, reads
// GET /metrics on a fresh connection after the last response, and stops the
// server with SIGTERM.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "pipeline/mapper_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// One client and one worker: interleaved on a shared 4-vCPU VM, the pass
// time of two clients against two workers spread 0.19 (quartile distance
// over median, five seeds) against 0.09 for one and one, because a pass
// then waits on two vCPUs other tenants can steal instead of one.
constexpr int kThreads = 1;
constexpr int kRepeats = 80;  // of 400 requests: a 20% repeat share

/// One entry of the seeded stream. `repeat_of` >= 0 marks an exact repeat
/// of an earlier entry, whose response has arrived before the repeat leaves
/// (the loop is closed), so the repeat must hit the cache.
struct StreamEntry {
  Request request;
  std::string kind;  // structured | general | device | repeat
  int repeat_of = -1;
};

/// A small calibrated device: a line of `k` qubits with a few chords,
/// seeded latencies (1 or 2 cycles) and error rates.
std::string random_device_json(Rng& rng, std::int32_t k) {
  std::string s = "{\"name\":\"rand-" + std::to_string(k) +
                  "\",\"qubits\":" + std::to_string(k) + ",\"edges\":[";
  bool first = true;
  const auto edge = [&](std::int32_t a, std::int32_t b) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "%s{\"a\":%d,\"b\":%d,\"latency\":%d,\"error\":%.6f}",
                  first ? "" : ",", a, b, static_cast<int>(rng.range(1, 2)),
                  0.001 + 0.019 * rng.unit());
    s += buf;
    first = false;
  };
  for (std::int32_t i = 0; i + 1 < k; ++i) edge(i, i + 1);
  for (std::int32_t i = 0; i + 2 < k; i += 3) edge(i, i + 2);
  return s + "]}";
}

/// `k` values in [lo, hi], one near the middle of each of k equal slices
/// of log space (jittered over a quarter of the slice), so the total work
/// of a stream barely depends on the seed.
std::vector<std::int32_t> stratified_log(Rng& rng, int k, double lo,
                                         double hi) {
  std::vector<std::int32_t> out;
  const double a = std::log(lo), b = std::log(hi + 1.0);
  for (int j = 0; j < k; ++j) {
    const double u = (j + 0.375 + 0.25 * rng.unit()) / k;
    out.push_back(static_cast<std::int32_t>(
        std::min(hi, std::floor(std::exp(a + (b - a) * u)))));
  }
  return out;
}

std::vector<StreamEntry> generate_stream(std::uint64_t seed) {
  Rng rng(seed * 0x100000001B3ull + 33);
  const qfto::MapperPipeline& pipeline = qfto::MapperPipeline::global();
  std::vector<StreamEntry> cold;

  // Cold structured QFTs, 180 per stream. The square engines have only 30
  // native sizes in [8, 1024], so they get few requests each. Each request
  // takes a native size no earlier request of its engine snapped to.
  const std::vector<std::pair<std::string, int>> structured = {
      {"lnn", 88},     {"heavy_hex", 24}, {"heavy_hex_device", 16},
      {"lattice", 16}, {"grid", 12},      {"sycamore", 12},
      {"lnn_baseline", 12}};
  for (const auto& [engine, count] : structured) {
    const qfto::MapperEngine& eng = pipeline.at(engine);
    std::set<std::int32_t> used;
    for (std::int32_t n : stratified_log(rng, count, 8, 1024)) {
      int tries = 0;
      while (used.count(eng.native_size(n)) != 0 && tries++ < 2048) {
        n = n >= 1024 ? 8 : n + 1;
      }
      used.insert(eng.native_size(n));
      StreamEntry e;
      e.request.engine = engine;
      e.request.n = n;
      e.kind = "structured";
      cold.push_back(e);
    }
  }
  // Small routed work, 120 per stream: general circuits of 4-24 qubits on
  // sabre, grid and heavy_hex, and seeded SABRE QFTs on the line.
  for (const char* engine : {"sabre", "grid", "heavy_hex"}) {
    for (const std::int32_t q : stratified_log(rng, 30, 4, 24)) {
      const auto cx = static_cast<std::int32_t>(rng.range(q, 4 * q));
      StreamEntry e;
      e.request.engine = engine;
      e.request.qasm = random_circuit_qasm(rng, q, cx);
      e.request.circuit_id =
          "rand" + std::to_string(q) + "x" + std::to_string(cx);
      e.kind = "general";
      cold.push_back(e);
    }
  }
  for (const std::int32_t n : stratified_log(rng, 30, 8, 40)) {
    StreamEntry e;
    e.request.engine = "sabre";
    e.request.n = n;
    e.request.seed = rng.range(1, 1 << 30);
    e.kind = "general";
    cold.push_back(e);
  }
  // 20 requests carrying their own calibrated device.
  for (const std::int32_t k : stratified_log(rng, 20, 6, 16)) {
    StreamEntry e;
    e.request.engine = "sabre";
    e.request.device_json = random_device_json(rng, k);
    e.request.device_id = "rand-dev" + std::to_string(k);
    e.request.n = static_cast<std::int32_t>(rng.range(3, k));
    if (rng.unit() < 0.5) e.request.objective = "fidelity";
    e.kind = "device";
    cold.push_back(e);
  }
  for (std::size_t i = cold.size(); i > 1; --i) {
    std::swap(cold[i - 1], cold[static_cast<std::size_t>(
                               rng.range(0, static_cast<std::int64_t>(i - 1)))]);
  }

  // Exactly kRepeats exact repeats, at seeded positions past the first 16.
  // Each repeats one of the last 16 QFT requests (which never fail and are
  // always cacheable), so every repeat must hit the cache.
  const int total = static_cast<int>(cold.size()) + kRepeats;
  std::vector<int> slots;
  for (int pos = 16; pos < total; ++pos) slots.push_back(pos);
  for (int i = 0; i < kRepeats; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.range(i, static_cast<std::int64_t>(slots.size()) - 1));
    std::swap(slots[static_cast<std::size_t>(i)], slots[j]);
  }
  const std::set<int> repeat_at(slots.begin(), slots.begin() + kRepeats);
  std::vector<StreamEntry> out;
  std::vector<int> recent;  // positions of the QFT requests sent so far
  std::size_t next_cold = 0;
  for (int pos = 0; pos < total; ++pos) {
    if (repeat_at.count(pos) != 0 && !recent.empty()) {
      const std::size_t from = recent.size() > 16 ? recent.size() - 16 : 0;
      const int orig = recent[static_cast<std::size_t>(rng.range(
          static_cast<std::int64_t>(from),
          static_cast<std::int64_t>(recent.size()) - 1))];
      StreamEntry e = out[static_cast<std::size_t>(orig)];
      e.kind = "repeat";
      e.repeat_of = orig;
      out.push_back(e);
      continue;
    }
    if (next_cold == cold.size()) break;
    out.push_back(cold[next_cold++]);
    const StreamEntry& e = out.back();
    if (!e.request.is_circuit() && e.request.device_json.empty()) {
      recent.push_back(pos);
    }
  }
  return out;
}

// ------------------------------------------------------- plain socket IO --

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{120, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads up to and excluding the next '\n'; `buf` carries leftover bytes.
bool recv_line(int fd, std::string& buf, std::string& line) {
  while (true) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// GET /metrics on a fresh connection; returns the JSON body or "".
std::string fetch_metrics(std::uint16_t port) {
  const int fd = connect_to(port);
  if (fd < 0) return {};
  std::string all;
  if (send_all(fd, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n"
                   "Connection: close\r\n\r\n")) {
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      all.append(chunk, static_cast<std::size_t>(n));
      const std::size_t body = all.find("\r\n\r\n");
      if (body != std::string::npos && all.find('\n', body + 4) != std::string::npos) {
        break;
      }
    }
  }
  ::close(fd);
  const std::size_t body = all.find("\r\n\r\n");
  if (body == std::string::npos) return {};
  std::string json = all.substr(body + 4);
  while (!json.empty() && (json.back() == '\n' || json.back() == '\r')) {
    json.pop_back();
  }
  return json;
}

struct Exchange {
  double sent = 0.0;
  double received = 0.0;
  std::string response;  // "" on a transport failure
};

struct ServePass {
  bool traced = false;
  double setup = 0.0;
  double wall = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<Exchange> exchanges;  // indexed by stream position
  Json metrics;
  bool metrics_ok = false;
};

bool run_pass(const RunConfig& cfg, const std::vector<StreamEntry>& stream,
              ServePass& pass, Trace* trace) {
  const double t0 = now_s();
  auto server = Child::spawn({cfg.qftmap_path, "--serve", "--listen",
                              "127.0.0.1:0", "--threads",
                              std::to_string(kThreads)},
                             false, true);
  if (server == nullptr) return false;
  std::string line;
  std::uint16_t port = 0;
  while (server->read_line(2, line, 60.0)) {
    const std::size_t colon = line.rfind(':');
    if (line.rfind("listening on ", 0) == 0 && colon != std::string::npos) {
      port = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
      break;
    }
  }
  if (port == 0) return false;
  const int fd = connect_to(port);
  if (fd < 0) return false;
  pass.setup = now_s() - t0;

  pass.exchanges.assign(stream.size(), Exchange{});
  const double start = now_s();
  std::string buf;
  for (std::size_t pos = 0; pos < stream.size(); ++pos) {
    const std::string id = "s" + std::to_string(pos);
    const std::string request = stream[pos].request.line(id) + "\n";
    Exchange& ex = pass.exchanges[pos];
    ScopedSpan span(trace, "serve.request", 0, id, 1);
    ex.sent = now_s();
    std::string reply;
    if (!send_all(fd, request) || !recv_line(fd, buf, reply)) {
      break;  // the rest of the stream stays unanswered
    }
    ex.received = now_s();
    ex.response = std::move(reply);
    span.arg("kind", "\"" + stream[pos].kind + "\"");
  }
  pass.wall = now_s() - start;
  // Counters are read after the last response, on a fresh connection: an
  // in-band metrics line would be answered before requests still in flight.
  const std::string body = fetch_metrics(port);
  pass.metrics_ok = !body.empty() && parse_json(body, pass.metrics);
  ::close(fd);
  pass.peak_rss_mb = static_cast<double>(server->stop(SIGTERM, 30.0)) / 1024.0;
  return true;
}

/// Fields of a response that must match the reference: all but the echoed
/// id and the timing fields.
bool comparable(const std::string& key) {
  return key != "id" && key != "cache_hit" && key != "map_seconds" &&
         key != "check_seconds" && key != "queue_seconds";
}

std::string compare_responses(const Json& got, const Json& want) {
  std::set<std::string> keys;
  for (const auto& [k, v] : got.fields) keys.insert(k);
  for (const auto& [k, v] : want.fields) keys.insert(k);
  for (const auto& k : keys) {
    if (!comparable(k)) continue;
    const Json* a = got.get(k);
    const Json* b = want.get(k);
    if (a == nullptr || b == nullptr || a->kind != b->kind ||
        a->raw != b->raw || a->flag != b->flag) {
      return "field \"" + k + "\" differs from the reference";
    }
  }
  return {};
}

}  // namespace

int run_serve_workload(const RunConfig& cfg, Report& report) {
  const std::vector<StreamEntry> stream = generate_stream(cfg.seed);
  Trace trace(cfg.trace);
  const double origin = now_s();
  std::vector<ServePass> passes;
  double last_pass = 0.0;
  while (true) {
    ServePass pass;
    pass.traced = cfg.trace && passes.size() % 2 == 1;
    const double pass_start = now_s();
    if (!run_pass(cfg, stream, pass, pass.traced ? &trace : nullptr)) {
      std::fprintf(stderr, "perfbench: could not start or reach %s\n",
                   cfg.qftmap_path.c_str());
      return 1;
    }
    last_pass = now_s() - pass_start;
    passes.push_back(std::move(pass));
    const double elapsed = now_s() - origin;
    if (passes.size() >= (cfg.trace ? 4u : 3u) &&
        elapsed + last_pass > cfg.seconds) {
      break;
    }
  }

  // Untimed in-process reference for every distinct request, through the
  // same entry points and correctness gate as the compile workloads.
  Layers ref_layers;
  std::vector<Json> reference(stream.size());
  std::vector<std::string> reference_wrong(stream.size());
  std::vector<bool> reference_known(stream.size(), false);
  for (std::size_t pos = 0; pos < stream.size(); ++pos) {
    if (stream[pos].repeat_of >= 0) continue;
    const std::string id = "s" + std::to_string(pos);
    const Executed ex = execute_request(stream[pos].request, id, true, &trace,
                                        0, &ref_layers);
    reference_wrong[pos] = ex.wrong;
    reference_known[pos] = !ex.ok && is_known_failure(ex.error);
    if (!parse_json(reference_response("\"" + id + "\"", ex), reference[pos])) {
      reference_wrong[pos] = "reference response is not JSON";
    }
  }

  // Latencies per stream position over the passes, untraced and traced.
  std::vector<std::vector<double>> per_pos(stream.size()),
      t_per_pos(stream.size()), hit_per_pos(stream.size());
  std::vector<double> walls, setups, rss, t_walls;
  std::vector<double> queue, map, residual, hit_ratio, evictions, entries,
      shed;
  std::int64_t errors = 0, hits_expected = 0;
  double depth = 0, swaps = 0, fidelity = 0;
  for (const StreamEntry& e : stream) hits_expected += e.repeat_of >= 0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const ServePass& pass = passes[p];
    setups.push_back(pass.setup);
    rss.push_back(pass.peak_rss_mb);
    (pass.traced ? t_walls : walls).push_back(pass.wall);
    for (std::size_t pos = 0; pos < stream.size(); ++pos) {
      const StreamEntry& entry = stream[pos];
      const Exchange& ex = pass.exchanges[pos];
      const std::size_t origin_pos =
          entry.repeat_of >= 0 ? static_cast<std::size_t>(entry.repeat_of)
                               : pos;
      Row row;
      row.workload = cfg.workload;
      row.request_id = "p" + std::to_string(p) + "-s" + std::to_string(pos);
      row.engine = entry.request.engine;
      row.label = entry.request.label();
      Json got;
      if (ex.response.empty() || !parse_json(ex.response, got)) {
        row.status = "error";
        row.detail = ex.response.empty() ? "no response" : "malformed response";
      } else {
        const double latency = ex.received - ex.sent;
        row.seconds = latency;
        const bool ok = got.get("ok") != nullptr && got.get("ok")->flag;
        const bool hit = got.get("cache_hit") != nullptr &&
                         got.get("cache_hit")->flag;
        std::string finding = compare_responses(got, reference[origin_pos]);
        if (finding.empty()) finding = reference_wrong[origin_pos];
        if (finding.empty() && entry.repeat_of >= 0) {
          // A hit must equal its first miss apart from timing fields.
          Json first;
          if (parse_json(pass.exchanges[origin_pos].response, first)) {
            finding = compare_responses(got, first);
          }
        }
        // Repeats follow their original's reply and cold keys are unique
        // after size snapping, so the cache must hit exactly on the repeats.
        if (finding.empty() && ok && hit != (entry.repeat_of >= 0)) {
          finding = hit ? "cold request answered from the cache"
                        : "repeat missed the cache";
        }
        if (!finding.empty()) {
          row.status = "wrong";
          row.detail = finding;
        } else if (!ok) {
          row.status = reference_known[origin_pos] ? "known_failure" : "error";
          row.detail = got.text("error");
          ++errors;
        } else {
          row.status = hit ? "hit" : "ok";
          row.depth = static_cast<std::int64_t>(got.number("depth"));
          row.swaps = static_cast<std::int64_t>(got.number("swap"));
          row.log10_fidelity = got.number("log10_fidelity");
          const double q = got.number("queue_seconds");
          const double m = got.number("map_seconds");
          const double c = got.number("check_seconds");
          (pass.traced ? t_per_pos : per_pos)[pos].push_back(latency);
          if (hit && !pass.traced) hit_per_pos[pos].push_back(latency);
          if (pass.traced) {
            queue.push_back(q);
            if (!hit) map.push_back(m);
            residual.push_back(latency - q - m - c);
          }
          if (p == 0 && entry.repeat_of < 0) {
            depth += static_cast<double>(row.depth);
            swaps += static_cast<double>(row.swaps);
            fidelity += row.log10_fidelity;
          }
        }
      }
      report.count(row);
      if (p == 0 || (row.status != "ok" && row.status != "hit")) {
        print_row(row);
      }
    }
    // The service's own counters must agree with the generated repeats.
    Row counters;
    counters.workload = cfg.workload;
    counters.request_id = "p" + std::to_string(p) + "-metrics";
    counters.engine = "service";
    counters.label = "GET /metrics";
    counters.status = "ok";
    if (pass.metrics_ok) {
      const Json* cache = pass.metrics.get("cache");
      const double h = cache != nullptr ? cache->number("hits") : 0.0;
      const double m = cache != nullptr ? cache->number("misses") : 0.0;
      if (pass.traced) {
        hit_ratio.push_back(h + m > 0 ? h / (h + m) : 0.0);
        evictions.push_back(cache != nullptr ? cache->number("evictions") : 0);
        entries.push_back(cache != nullptr ? cache->number("entries") : 0);
        shed.push_back(pass.metrics.number("shed"));
      }
      if (static_cast<std::int64_t>(h) != hits_expected) {
        counters.status = "wrong";
        counters.detail = "/metrics counts " + json_number(h) +
                          " cache hits, the stream holds " +
                          std::to_string(hits_expected) + " repeats";
      }
    } else {
      counters.status = "error";
      counters.detail = "GET /metrics failed";
    }
    report.count(counters);
    if (counters.status != "ok") print_row(counters);
  }

  // The stream is identical in every pass, so each position's median over
  // the passes filters bursts of noise; the p50 metrics are medians of
  // those, the tail comes from all samples pooled.
  const auto add_latency = [&](std::vector<Metric>& to,
                               const std::vector<double>& w,
                               const std::vector<std::vector<double>>& pos) {
    if (w.empty()) return;
    std::vector<double> medians, lat;
    for (const auto& samples : pos) {
      if (samples.empty()) continue;
      medians.push_back(median(samples));
      lat.insert(lat.end(), samples.begin(), samples.end());
    }
    const double compile = median(w);
    report.add(to, "compile_s", compile, "s",
               "median of " + std::to_string(w.size()) + " passes over " +
                   std::to_string(stream.size()) + " requests");
    report.add(to, "throughput_rps",
               static_cast<double>(stream.size()) / compile, "1/s",
               "1 closed-loop client, " + std::to_string(kThreads) +
                   " server threads");
    report.add(to, "latency_p50_s", median(medians), "s",
               "median of " + std::to_string(medians.size()) +
                   " per-request medians, " + std::to_string(lat.size()) +
                   " samples");
    const Tail tail = tail_latency(lat);
    report.add(to, "latency_tail_s", tail.value, "s",
               "p" + json_number(tail.percentile) + " of " +
                   std::to_string(tail.samples) + " samples");
  };
  auto& e2e = report.end_to_end;
  report.add(e2e, "setup_s", median(setups), "s",
             "median of " + std::to_string(setups.size()) +
                 " server starts, exec to accepted connection");
  add_latency(e2e, walls, per_pos);
  std::vector<double> hit_medians;
  for (const auto& samples : hit_per_pos) {
    if (!samples.empty()) hit_medians.push_back(median(samples));
  }
  report.add(e2e, "hit_latency_p50_s", median(hit_medians), "s",
             "median of " + std::to_string(hit_medians.size()) +
                 " per-request medians of cache hits");
  report.add(e2e, "peak_rss_mb", median(rss), "MB",
             "server VmHWM, median over passes");
  report.add(e2e, "depth_total", depth, "cycles");
  report.add(e2e, "swap_total", swaps, "count");
  report.add(e2e, "log10_fidelity_sum", fidelity, "log10");
  report.add(e2e, "neg_log10_fidelity_sum", -fidelity, "log10");
  report.notes.push_back("repeat share " +
                         json_number(static_cast<double>(hits_expected) /
                                     static_cast<double>(stream.size())));
  if (!cfg.trace) return 0;

  add_latency(report.traced_end_to_end, t_walls, t_per_pos);
  auto& pl = report.per_layer;
  for (const char* name :
       {"pipeline.run_s", "pipeline.unattributed_s", "arch.build_graph_s",
        "verify.check_s", "verify.fidelity_s", "service.parse_s",
        "service.serialize_s", "arch.device_load_s", "qasm.parse_s"}) {
    report.add(pl, name, ref_layers[name], "s",
               "in-process reference, one pass");
  }
  report.add(pl, "mapper.gates_per_s",
             ref_layers["mapper.gates"] /
                 std::max(ref_layers["mapper.map_s"], 1e-12),
             "1/s");
  const Tail queue_tail = tail_latency(queue);
  report.add(pl, "service.queue_s.p50", median(queue), "s");
  report.add(pl, "service.queue_s.tail", queue_tail.value, "s",
             "p" + json_number(queue_tail.percentile) + " of " +
                 std::to_string(queue_tail.samples));
  report.add(pl, "service.map_s.p50", median(map), "s", "misses");
  report.add(pl, "service.residual_s.p50", median(residual), "s",
             "client latency - queue - map - check");
  report.add(pl, "service.cache.hit_ratio", median(hit_ratio), "ratio",
             "expected " + json_number(static_cast<double>(hits_expected) /
                                       static_cast<double>(stream.size())));
  report.add(pl, "service.cache.evictions", median(evictions), "count");
  report.add(pl, "service.cache.entries", median(entries), "count");
  report.add(pl, "service.shed", median(shed), "count");
  report.add(pl, "service.errors", static_cast<double>(errors), "count",
             "all passes");
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
