// TCP front-end for the MappingService — the transport that turns the
// single-client stdio serve loop into a multi-tenant server. One accept loop;
// each connection runs the stdio loop's own ServeSession (serve.hpp), fed by
// a reader thread and drained by a writer thread, so the stdio loop, the
// socket path and every test share one queue, one admission path and one
// writer. Only the transport stays here: socket framing, the HTTP sniff, the
// overflow reply, the accept loop and the drain. Responses stream back in
// per-connection request order while jobs run concurrently under the
// service's priority/deadline semantics.
//
// Two protocols share the port, sniffed from the first bytes of each
// connection:
//
//   * newline-JSON (default): one request per line, one response line each,
//     any number of requests per connection — `qftmap --serve` over TCP.
//   * minimal HTTP/1.1: `GET /metrics` returns the metrics_json document;
//     `POST /map` takes one request object as its body and returns the
//     response JSON. One request per connection (Connection: close) — enough
//     for curl and load balancer health checks, not a web server.
//
// Admission control: a configurable global in-flight bound and a
// per-connection pending bound. A request over either limit is *shed* — the
// client gets an immediate in-band `{"ok":false,"status":"shed",...}` (HTTP
// 503) instead of a silently deepening queue; CHC-COMP-style
// resource-limited well-formedness is the model. Graceful drain: stop
// accepting, half-close every connection's read side, finish in-flight jobs
// within a drain budget, then flip cancel tokens on whatever remains.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/serve.hpp"
#include "service/transport.hpp"

namespace qfto {
namespace net {

class NetServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 binds an ephemeral port; port() reports the actual one.
    std::uint16_t port = 0;
    /// Global bound on jobs submitted-but-unanswered across all
    /// connections; requests past it are shed. 0 = unbounded.
    std::size_t max_inflight = 1024;
    /// Per-connection bound on queued jobs: past it requests are shed, and
    /// the reader blocks 64 queued responses later. 0 = unbounded.
    std::size_t max_pending_per_conn = 256;
    /// stop_and_drain(): seconds to let in-flight jobs finish before their
    /// cancel tokens are flipped.
    double drain_seconds = 10.0;
    /// SO_SNDTIMEO on accepted sockets: a client that stops reading for
    /// this long is treated as dead (its pending jobs are cancelled).
    int send_timeout_ms = 30000;
    /// Protocol line-length bound (requests and HTTP headers).
    std::size_t max_line = 1 << 20;
  };

  /// Binds and listens immediately (throws std::runtime_error on failure);
  /// serving starts with run() or start().
  NetServer(MappingService& service, Options options);

  /// Equivalent to request_stop() + stop_and_drain().
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  const std::string& host() const { return listener_.host(); }
  std::uint16_t port() const { return listener_.port(); }

  /// Serving counters shared by every connection — the /metrics payload.
  ServeMetrics& metrics() { return metrics_; }

  /// Accept loop on the calling thread; returns once request_stop() is
  /// called (connections may still be finishing — follow with
  /// stop_and_drain()).
  void run();

  /// run() on a background thread (tests and benchmarks).
  void start();

  /// Stops the accept loop. Async-signal-safe by construction — one atomic
  /// store plus a write() to a self-pipe that wakes the accept loop's poll —
  /// so the CLI's SIGTERM/SIGINT handler may call it directly. It must never
  /// grow a lock, an allocation, or any other non-signal-safe work.
  void request_stop();

  /// Graceful drain: stop accepting, close the listener, half-close every
  /// connection (clients see EOF; no new requests are read), wait up to
  /// drain_seconds for in-flight jobs and response writes to finish, then
  /// cancel whatever is still pending and join all connection threads.
  void stop_and_drain();

 private:
  struct Connection;

  void accept_loop();
  void serve_connection(Connection& conn);
  void serve_http(Connection& conn, LineReader& reader,
                  const std::string& request_line);
  void reap_finished_locked();

  MappingService* service_;
  Options options_;
  Listener listener_;
  ServeMetrics metrics_;

  std::atomic<bool> stop_{false};
  /// Self-pipe ([0] read / [1] write): request_stop() writes one byte so the
  /// accept loop's poll returns immediately instead of sitting out its
  /// timeout — the async-signal-safe wake-up a signal handler needs.
  int wake_pipe_[2] = {-1, -1};
  std::thread accept_thread_;  // only when start() was used
  bool drained_ = false;

  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace net
}  // namespace qfto
