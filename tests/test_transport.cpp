// Socket transport: framing, host:port parsing, the latency histogram, and
// the NetServer end to end — concurrent clients, per-connection response
// order, admission control / shedding, oversized and partial frames,
// mid-stream disconnects cancelling abandoned work, the HTTP adapter, and
// graceful drain. Runs under the CI TSan leg: every reader/writer/accept
// thread interaction here is what that leg locks in.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/line.hpp"
#include "common/timer.hpp"
#include "mapper/lnn_mapper.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "service/mapping_service.hpp"
#include "service/net_server.hpp"
#include "service/result_cache.hpp"
#include "service/serve.hpp"
#include "service/transport.hpp"

namespace qfto {
namespace {

using namespace std::chrono_literals;
using net::LineReader;
using net::NetServer;
using net::Socket;

// Cancellable nap engine (same shape as test_service's): long enough to
// still be in flight when a test disconnects/sheds/drains around it.
class SleeperEngine final : public MapperEngine {
 public:
  explicit SleeperEngine(double nap_seconds) : nap_seconds_(nap_seconds) {}
  std::string name() const override { return "sleeper"; }
  std::string description() const override { return "naps, then maps lnn"; }
  bool deterministic() const override { return false; }
  CouplingGraph build_graph(std::int32_t n,
                            const MapOptions&) const override {
    return make_line(n);
  }
  MappedCircuit map(std::int32_t n, const CouplingGraph&,
                    const MapOptions& opts) const override {
    WallTimer timer;
    while (timer.seconds() < nap_seconds_) {
      if (opts.cancel != nullptr &&
          opts.cancel->load(std::memory_order_relaxed)) {
        throw MapCancelled(false, "sleeper: cancelled mid-map");
      }
      std::this_thread::sleep_for(1ms);
    }
    return map_qft_lnn(n);
  }

 private:
  double nap_seconds_;
};

MapperPipeline pipeline_with_sleeper(double nap_seconds) {
  MapperPipeline pipeline = MapperPipeline::with_paper_engines();
  pipeline.register_engine(std::make_unique<SleeperEngine>(nap_seconds));
  return pipeline;
}

MappingService::Options service_options(std::int32_t threads) {
  MappingService::Options options;
  options.num_threads = threads;
  options.cache_capacity = 1024;
  return options;
}

NetServer::Options loopback(std::uint16_t port = 0) {
  NetServer::Options options;
  options.host = "127.0.0.1";
  options.port = port;
  return options;
}

Socket connect_to(const NetServer& server) {
  std::string error;
  Socket sock = net::dial(server.host(), server.port(), &error);
  EXPECT_TRUE(sock.valid()) << error;
  return sock;
}

std::string read_line(LineReader& reader) {
  std::string line;
  EXPECT_TRUE(reader.next(line))
      << "status=" << static_cast<int>(reader.status());
  return line;
}

// ----------------------------------------------------------- pure pieces --

TEST(Transport, ParseHostPort) {
  net::HostPort hp;
  std::string error;
  ASSERT_TRUE(net::parse_host_port("127.0.0.1:8080", hp, error)) << error;
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 8080);
  ASSERT_TRUE(net::parse_host_port("localhost:0", hp, error)) << error;
  EXPECT_EQ(hp.port, 0);

  EXPECT_FALSE(net::parse_host_port("no-port", hp, error));
  EXPECT_FALSE(net::parse_host_port(":123", hp, error));
  EXPECT_FALSE(net::parse_host_port("127.0.0.1:", hp, error));
  EXPECT_FALSE(net::parse_host_port("127.0.0.1:99999", hp, error));
  EXPECT_FALSE(net::parse_host_port("127.0.0.1:12x", hp, error));
  EXPECT_FALSE(net::parse_host_port("not.a.host:80", hp, error));
}

TEST(Transport, LatencyHistogramQuantiles) {
  net::LatencyHistogram hist;
  EXPECT_EQ(hist.quantile(0.5), 0.0) << "empty histogram reads zero";
  for (int i = 0; i < 99; ++i) hist.record(1e-3);
  hist.record(1.0);
  EXPECT_EQ(hist.count(), 100u);
  // Log-bucketed: ~19% relative resolution around the true value.
  EXPECT_NEAR(hist.quantile(0.5), 1e-3, 0.3e-3);
  EXPECT_NEAR(hist.quantile(0.99), 1e-3, 0.3e-3);
  EXPECT_NEAR(hist.quantile(1.0), 1.0, 0.3);
}

TEST(Transport, EphemeralPortIsReported) {
  MappingService service{service_options(1)};
  NetServer server(service, loopback());
  EXPECT_GT(server.port(), 0) << "port 0 must resolve to the bound port";
}

// ------------------------------------------------------------ happy path --

TEST(Transport, JsonRoundTripWithCacheHit) {
  // One worker serializes the identical requests so the second is
  // guaranteed to find the first's cache entry (in-flight twins can race on
  // a wider pool and both miss).
  MappingService service{service_options(1)};
  NetServer server(service, loopback());
  server.start();

  Socket sock = connect_to(server);
  LineReader reader(sock);
  ASSERT_TRUE(sock.send_all("{\"id\":1,\"engine\":\"lattice\",\"n\":9}\n"
                            "{\"id\":2,\"engine\":\"lattice\",\"n\":9}\n"));
  const std::string first = read_line(reader);
  const std::string second = read_line(reader);
  EXPECT_NE(first.find("\"id\":1"), std::string::npos) << first;
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_NE(first.find("\"cache_hit\":false"), std::string::npos) << first;
  EXPECT_NE(second.find("\"id\":2"), std::string::npos) << second;
  EXPECT_NE(second.find("\"cache_hit\":true"), std::string::npos) << second;
}

TEST(Transport, ConcurrentClientsKeepTheirOwnOrder) {
  MappingService service{service_options(4)};
  NetServer server(service, loopback());
  server.start();

  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Socket sock = connect_to(server);
      LineReader reader(sock);
      std::string batch;
      for (int r = 0; r < kRequests; ++r) {
        // Mixed priorities scramble service-side completion order; the
        // response stream must stay in request order regardless.
        batch += "{\"id\":" + std::to_string(c * 100 + r) +
                 ",\"engine\":\"lnn\",\"n\":" + std::to_string(4 + r) +
                 ",\"priority\":" + std::to_string(r % 3) + "}\n";
      }
      if (!sock.send_all(batch)) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        std::string line;
        if (!reader.next(line) ||
            line.find("\"id\":" + std::to_string(c * 100 + r) + ",") ==
                std::string::npos ||
            line.find("\"ok\":true") == std::string::npos) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The counter bumps after the send, so the last client can observe its
  // response a beat before the increment lands — poll briefly.
  WallTimer timer;
  while (server.metrics().responses.load() <
             static_cast<std::uint64_t>(kClients * kRequests) &&
         timer.seconds() < 2.0) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(server.metrics().responses.load(),
            static_cast<std::uint64_t>(kClients * kRequests));
}

// -------------------------------------------------------------- negatives --

TEST(Transport, OversizedLineGetsInBandErrorThenClose) {
  MappingService service{service_options(1)};
  NetServer::Options options = loopback();
  options.max_line = 512;
  NetServer server(service, options);
  server.start();

  Socket sock = connect_to(server);
  LineReader reader(sock);
  const std::string huge(2048, 'x');
  ASSERT_TRUE(sock.send_all(huge));  // no newline yet: one unframed blob
  const std::string line = read_line(reader);
  EXPECT_NE(line.find("\"status\":\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("exceeds"), std::string::npos) << line;
  std::string extra;
  EXPECT_FALSE(reader.next(extra)) << "server must stop reading after abuse";
}

TEST(Transport, PartialFrameIsDroppedSilently) {
  MappingService service{service_options(1)};
  NetServer server(service, loopback());
  server.start();

  Socket sock = connect_to(server);
  // A request with no trailing newline is an incomplete frame: the server
  // must not guess at it (and must not hang — EOF retires the connection).
  ASSERT_TRUE(sock.send_all("{\"id\":9,\"engine\":\"lnn\",\"n\":4}"));
  ::shutdown(sock.fd(), SHUT_WR);
  LineReader reader(sock);
  std::string line;
  EXPECT_FALSE(reader.next(line)) << "no response for a partial frame: "
                                  << line;
  EXPECT_EQ(reader.status(), LineReader::Status::kEof);
}

TEST(Transport, EmbeddedNulIsAnInBandParseError) {
  MappingService service{service_options(1)};
  NetServer server(service, loopback());
  server.start();

  Socket sock = connect_to(server);
  LineReader reader(sock);
  std::string request = "{\"id\":3,\"engine\":\"lnn\",\"n\":4}";
  request[request.size() - 2] = '\0';  // NUL where a digit was
  request += '\n';
  ASSERT_TRUE(sock.send_all(request));
  const std::string line = read_line(reader);
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
  EXPECT_NE(line.find("parse error"), std::string::npos) << line;
  EXPECT_EQ(server.metrics().parse_errors.load(), 1u);
}

TEST(Transport, MidStreamDisconnectCancelsAbandonedJobs) {
  const MapperPipeline pipeline = pipeline_with_sleeper(0.5);
  MappingService service{service_options(1), pipeline};
  NetServer server(service, loopback());
  server.start();

  {
    Socket sock = connect_to(server);
    std::string batch;
    for (int r = 0; r < 8; ++r) {
      batch += "{\"id\":" + std::to_string(r) +
               ",\"engine\":\"sleeper\",\"n\":4}\n";
    }
    ASSERT_TRUE(sock.send_all(batch));
    // Give the reader time to submit, then vanish without reading a byte.
    std::this_thread::sleep_for(100ms);
  }

  // 8 sleeper jobs at 0.5 s on one worker is 4 s if nothing cancels them.
  // The writer must detect the dead client and cancel the backlog well
  // before that.
  WallTimer timer;
  while (server.metrics().in_flight.load() > 0 && timer.seconds() < 3.0) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(server.metrics().in_flight.load(), 0)
      << "abandoned jobs must be cancelled";
  EXPECT_LT(timer.seconds(), 3.0);
}

// ----------------------------------------------------- admission control --

TEST(Transport, ShedsAtMaxInflight) {
  const MapperPipeline pipeline = pipeline_with_sleeper(0.5);
  MappingService service{service_options(1), pipeline};
  NetServer::Options options = loopback();
  options.max_inflight = 1;
  NetServer server(service, options);
  server.start();

  Socket sock = connect_to(server);
  LineReader reader(sock);
  ASSERT_TRUE(sock.send_all("{\"id\":1,\"engine\":\"sleeper\",\"n\":4}\n"
                            "{\"id\":2,\"engine\":\"lnn\",\"n\":4}\n"));
  const std::string first = read_line(reader);
  const std::string second = read_line(reader);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_NE(second.find("\"status\":\"shed\""), std::string::npos) << second;
  EXPECT_NE(second.find("\"id\":2"), std::string::npos) << second;
  EXPECT_EQ(server.metrics().shed.load(), 1u);

  // Shedding is per-request, not per-connection: once the queue clears, the
  // same connection is served again.
  ASSERT_TRUE(sock.send_all("{\"id\":3,\"engine\":\"lnn\",\"n\":4}\n"));
  const std::string third = read_line(reader);
  EXPECT_NE(third.find("\"ok\":true"), std::string::npos) << third;
}

// ----------------------------------------------------------------- metrics --

TEST(Transport, MetricsMatchCacheStatsOverBothProtocols) {
  // One worker: the identical requests must be a deterministic miss+hit for
  // the exact cache-stats comparison below.
  MappingService service{service_options(1)};
  NetServer server(service, loopback());
  server.start();

  Socket sock = connect_to(server);
  LineReader reader(sock);
  ASSERT_TRUE(sock.send_all("{\"id\":1,\"engine\":\"lattice\",\"n\":9}\n"
                            "{\"id\":1,\"engine\":\"lattice\",\"n\":9}\n"));
  // Pipelined behind both jobs: the snapshot is rendered when the writer
  // reaches it, after both job responses are written (and thus recorded).
  ASSERT_TRUE(sock.send_all("{\"metrics\":true}\n"));
  read_line(reader);
  read_line(reader);
  const std::string inband = read_line(reader);
  const ResultCache::Stats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  const std::string cache_doc =
      "\"cache\":{\"hits\":" + std::to_string(stats.hits) +
      ",\"misses\":" + std::to_string(stats.misses) +
      ",\"insertions\":" + std::to_string(stats.insertions) +
      ",\"evictions\":" + std::to_string(stats.evictions) +
      ",\"expired\":" + std::to_string(stats.expired) +
      ",\"load_quarantined\":" + std::to_string(stats.load_quarantined) +
      ",\"entries\":" + std::to_string(stats.entries) +
      ",\"capacity\":" + std::to_string(stats.capacity) + "}";
  EXPECT_NE(inband.find(cache_doc), std::string::npos) << inband;
  EXPECT_NE(inband.find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(inband.find("\"map_seconds\":{\"count\":2"), std::string::npos)
      << inband;

  // Same document over HTTP.
  Socket http = connect_to(server);
  ASSERT_TRUE(http.send_all("GET /metrics HTTP/1.1\r\n"
                            "Host: x\r\nConnection: close\r\n\r\n"));
  LineReader http_reader(http);
  EXPECT_EQ(read_line(http_reader), "HTTP/1.1 200 OK");
  std::string line;
  while (http_reader.next(line) && !line.empty()) {
  }
  const std::string body = read_line(http_reader);
  EXPECT_NE(body.find(cache_doc), std::string::npos) << body;
}

// ------------------------------------------------------ stdio vs socket --

// Masks the fields that time the run rather than describe it: the three
// per-response seconds, the metrics histograms' quantiles, and the metrics
// `running` count (a worker leaves the running list just after its job's
// result is delivered, so a snapshot may still see it).
std::string mask_timings(const std::string& line) {
  static const std::regex seconds(
      "(\"(?:map|check|queue)_seconds\":)[-+.0-9eE]+");
  static const std::regex quantiles("(\"p(?:50|99)\":)[-+.0-9eE]+");
  static const std::regex running("(\"running\":)[0-9]+");
  std::string out = std::regex_replace(line, seconds, "$1#");
  out = std::regex_replace(out, quantiles, "$1#");
  return std::regex_replace(out, running, "$1#");
}

TEST(Transport, StdioAndSocketAnswerOneScriptByteForByte) {
  // A cold request, its hit, a snapped hit (12 snaps to the lattice's 16),
  // an unknown engine, a malformed line, a blank line, and a metrics request
  // pipelined behind the jobs. One worker per service keeps the cache hits
  // deterministic.
  const std::string script =
      "{\"id\":1,\"engine\":\"lattice\",\"n\":16}\n"
      "{\"id\":2,\"engine\":\"lattice\",\"n\":16}\n"
      "{\"id\":3,\"engine\":\"lattice\",\"n\":12}\n"
      "{\"id\":4,\"engine\":\"nosuch\",\"n\":4}\n"
      "{\"id\":5,\"bad\"\n"
      "\n"
      "{\"id\":6,\"metrics\":true}\n";
  constexpr std::size_t kResponses = 6;

  std::vector<std::string> stdio;
  {
    MappingService service{service_options(1)};
    std::istringstream in(script);
    std::ostringstream out;
    ASSERT_EQ(run_serve_loop(in, out, service), 0);
    std::istringstream reread(out.str());
    for (std::string line; std::getline(reread, line);) {
      stdio.push_back(mask_timings(line));
    }
  }

  std::vector<std::string> socket;
  {
    MappingService service{service_options(1)};
    NetServer server(service, loopback());
    server.start();
    Socket sock = connect_to(server);
    LineReader reader(sock);
    ASSERT_TRUE(sock.send_all(script));
    for (std::size_t i = 0; i < kResponses; ++i) {
      socket.push_back(mask_timings(read_line(reader)));
    }
  }

  ASSERT_EQ(stdio.size(), kResponses);
  EXPECT_NE(stdio[1].find("\"cache_hit\":true"), std::string::npos)
      << stdio[1];
  EXPECT_NE(stdio[2].find("\"requested_n\":12,\"n\":16,"), std::string::npos)
      << stdio[2];
  EXPECT_NE(stdio[4].find("parse error"), std::string::npos) << stdio[4];
  EXPECT_NE(stdio[5].find("\"responses\":5,"), std::string::npos) << stdio[5];
  for (std::size_t i = 0; i < kResponses; ++i) {
    EXPECT_EQ(stdio[i], socket[i]) << "response " << i;
  }
}

TEST(Transport, HttpPostMapAndErrorStatuses) {
  MappingService service{service_options(2)};
  NetServer server(service, loopback());
  server.start();

  const auto http_request = [&](const std::string& payload,
                                std::string* status) {
    Socket sock = connect_to(server);
    std::string req = "POST /map HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                      std::to_string(payload.size()) + "\r\n\r\n" + payload;
    EXPECT_TRUE(sock.send_all(req));
    LineReader reader(sock);
    *status = read_line(reader);
    std::string line;
    while (reader.next(line) && !line.empty()) {
    }
    return read_line(reader);
  };

  std::string status;
  const std::string ok = http_request("{\"engine\":\"lnn\",\"n\":5}", &status);
  EXPECT_EQ(status, "HTTP/1.1 200 OK");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  EXPECT_NE(ok.find("\"n\":5"), std::string::npos) << ok;

  const std::string bad = http_request("not json at all", &status);
  EXPECT_EQ(status, "HTTP/1.1 400 Bad Request");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << bad;

  Socket sock = connect_to(server);
  ASSERT_TRUE(sock.send_all("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"));
  LineReader reader(sock);
  EXPECT_EQ(read_line(reader), "HTTP/1.1 404 Not Found");
}

// ------------------------------------------------------------------ drain --

TEST(Transport, DrainFinishesInFlightAndRefusesNewConnections) {
  const MapperPipeline pipeline = pipeline_with_sleeper(0.3);
  MappingService service{service_options(1), pipeline};
  NetServer server(service, loopback());
  server.start();
  const std::uint16_t port = server.port();

  Socket sock = connect_to(server);
  LineReader reader(sock);
  ASSERT_TRUE(sock.send_all("{\"id\":1,\"engine\":\"sleeper\",\"n\":4}\n"));
  std::this_thread::sleep_for(50ms);  // let the job reach a worker

  server.request_stop();
  server.stop_and_drain();

  // The in-flight job finished inside the drain budget and its response
  // reached us even though the server was shutting down.
  const std::string line = read_line(reader);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;

  std::string error;
  Socket refused = net::dial("127.0.0.1", port, &error);
  if (refused.valid()) {
    // The listener is closed; at most the OS accepts and immediately
    // resets. A request must never be answered.
    LineReader dead_reader(refused);
    refused.send_all("{\"id\":2,\"engine\":\"lnn\",\"n\":4}\n");
    std::string none;
    EXPECT_FALSE(dead_reader.next(none));
  }
}

TEST(Transport, DrainPastBudgetCancelsStragglers) {
  const MapperPipeline pipeline = pipeline_with_sleeper(30.0);
  MappingService service{service_options(1), pipeline};
  NetServer::Options options = loopback();
  options.drain_seconds = 0.2;
  NetServer server(service, options);
  server.start();

  Socket sock = connect_to(server);
  LineReader reader(sock);
  ASSERT_TRUE(sock.send_all("{\"id\":1,\"engine\":\"sleeper\",\"n\":4}\n"));
  std::this_thread::sleep_for(50ms);

  WallTimer timer;
  server.request_stop();
  server.stop_and_drain();
  EXPECT_LT(timer.seconds(), 10.0)
      << "a 30 s job must not hold the drain hostage";

  const std::string line = read_line(reader);
  EXPECT_NE(line.find("\"status\":\"cancelled\""), std::string::npos) << line;
}

}  // namespace
}  // namespace qfto
