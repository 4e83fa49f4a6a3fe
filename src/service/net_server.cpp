#include "service/net_server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>

namespace qfto {
namespace net {

namespace {

/// First line of a connection: HTTP request line or a JSON object? The JSON
/// protocol's lines start with '{', so a method prefix is unambiguous.
bool looks_http(const std::string& line) {
  return (line.rfind("GET ", 0) == 0 || line.rfind("POST ", 0) == 0 ||
          line.rfind("HEAD ", 0) == 0) &&
         line.find(" HTTP/1.") != std::string::npos;
}

std::string http_response(const char* status, const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += status;
  out += "\r\nContent-Type: application/json\r\nContent-Length: ";
  out += std::to_string(body.size() + 1);
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  out += '\n';
  return out;
}

bool iequals(const std::string& a, const char* b) {
  std::size_t i = 0;
  for (; i < a.size() && b[i] != '\0'; ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return i == a.size() && b[i] == '\0';
}

/// A pre-formatted reply queued in the session; `http_status` frames it as
/// an HTTP response.
ServeSession::Pending reply(std::string body,
                            const char* http_status = nullptr) {
  ServeSession::Pending entry;
  entry.body = std::move(body);
  entry.http_status = http_status;
  return entry;
}

}  // namespace

/// One accepted socket: the session its reader thread feeds and its writer
/// thread drains.
struct NetServer::Connection {
  Connection(Socket s, MappingService& service, ServeMetrics& metrics,
             ServeSession::Limits limits)
      : sock(std::move(s)), session(service, metrics, limits) {}

  Socket sock;
  ServeSession session;

  /// Both threads have exited — the accept loop may join and reap.
  std::atomic<int> exited{0};
  std::atomic<bool> finished{false};

  std::thread reader;
  std::thread writer;

  void mark_exited() {
    if (exited.fetch_add(1, std::memory_order_acq_rel) + 1 == 2) {
      finished.store(true, std::memory_order_release);
    }
  }
};

// --------------------------------------------------------------- NetServer --

NetServer::NetServer(MappingService& service, Options options)
    : service_(&service),
      options_(std::move(options)),
      listener_(options_.host, options_.port) {
  // Self-pipe for signal-safe shutdown wake-ups. Non-blocking on both ends:
  // the handler's write must never block (a full pipe just means the wake-up
  // is already latched). On failure the fds stay -1 and the accept loop
  // falls back to its poll timeout — slower to stop, still correct.
  if (::pipe(wake_pipe_) == 0) {
    for (int fd : wake_pipe_) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
  } else {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
}

NetServer::~NetServer() {
  request_stop();
  stop_and_drain();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void NetServer::request_stop() {
  // Async-signal-safe: atomic store + write(). Nothing here may take a lock
  // or allocate — the CLI's SIGTERM handler calls this directly.
  stop_.store(true, std::memory_order_relaxed);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  }
}

void NetServer::run() {
  accept_loop();
}

void NetServer::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void NetServer::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Socket sock = listener_.accept_connection(50, wake_pipe_[0]);
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      reap_finished_locked();
    }
    if (!sock.valid()) continue;  // poll timeout — re-check the stop flag
    sock.set_send_timeout_ms(options_.send_timeout_ms);
    // Back-pressure: a reader stalls once its writer is `backlog` entries
    // behind, so a client that writes without reading cannot grow the
    // response queue without bound. Above max_pending_per_conn so shed
    // notices still queue.
    const ServeSession::Limits limits{true, options_.max_inflight,
                                      options_.max_pending_per_conn,
                                      options_.max_pending_per_conn + 64};
    auto conn = std::make_unique<Connection>(std::move(sock), *service_,
                                             metrics_, limits);
    Connection* c = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(std::move(conn));
    }
    c->reader = std::thread([this, c] { serve_connection(*c); });
    c->writer = std::thread([c] {
      const bool alive = c->session.drain(
          [c](const std::string& body, const char* http_status) {
            return c->sock.send_all(http_status != nullptr
                                        ? http_response(http_status, body)
                                        : body + "\n");
          });
      if (!alive) c->sock.shutdown_read();  // dead client: stop the reader
      c->mark_exited();
    });
  }
}

void NetServer::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& c = **it;
    if (c.finished.load(std::memory_order_acquire)) {
      if (c.reader.joinable()) c.reader.join();
      if (c.writer.joinable()) c.writer.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::serve_connection(Connection& conn) {
  LineReader reader(conn.sock, options_.max_line);
  std::string line;
  bool first = true;
  while (reader.next(line)) {
    if (first && looks_http(line)) {
      serve_http(conn, reader, line);
      break;
    }
    first = false;
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (!conn.session.push(conn.session.admit(line))) break;
  }
  if (reader.status() == LineReader::Status::kOverflow) {
    // Protocol violation: report in-band, then stop reading — the rest of
    // the stream has no trustworthy framing.
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.parse_errors.fetch_add(1, std::memory_order_relaxed);
    conn.session.push(reply(serve_inband_error(
        "null", "error",
        "request line exceeds " + std::to_string(options_.max_line) +
            " bytes")));
  }
  conn.session.close();
  conn.mark_exited();
}

void NetServer::serve_http(Connection& conn, LineReader& reader,
                           const std::string& request_line) {
  const auto reject = [&](const char* status, const std::string& error) {
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    conn.session.push(
        reply(serve_inband_error("null", "error", error), status));
  };

  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = request_line.find(' ', sp1 + 1);
  const std::string method = request_line.substr(0, sp1);
  const std::string path =
      sp2 == std::string::npos ? "" : request_line.substr(sp1 + 1, sp2 - sp1 - 1);

  // Headers: only Content-Length matters to this adapter.
  long long content_length = -1;
  std::string line;
  while (reader.next(line)) {
    if (line.empty()) break;  // end of headers (CRLF already stripped)
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    if (iequals(key, "content-length")) {
      content_length = std::strtoll(line.c_str() + colon + 1, nullptr, 10);
    }
  }

  if (method == "GET" && path == "/metrics") {
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    ServeSession::Pending entry;
    entry.http_status = "200 OK";
    entry.metrics = true;
    conn.session.push(std::move(entry));
    return;
  }
  if (method == "POST" && path == "/map") {
    if (content_length < 0 ||
        content_length > static_cast<long long>(options_.max_line)) {
      reject("411 Length Required",
             "POST /map requires a Content-Length within the line bound");
      return;
    }
    std::string body;
    if (!reader.read_exact(static_cast<std::size_t>(content_length), body)) {
      return;  // body never arrived; nothing to answer
    }
    conn.session.push(conn.session.admit(body, /*http=*/true));
    return;
  }
  reject("404 Not Found", "unsupported endpoint (GET /metrics, POST /map)");
}

void NetServer::stop_and_drain() {
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (drained_) return;
  drained_ = true;
  listener_.close();

  // Half-close every connection: blocked readers wake with EOF, no further
  // requests are admitted, writers keep draining queued responses.
  std::vector<Connection*> live;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    live.reserve(conns_.size());
    for (auto& conn : conns_) live.push_back(conn.get());
  }
  for (Connection* conn : live) conn->sock.shutdown_read();

  // Drain budget: let in-flight jobs finish and responses flush.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(std::max(0.0, options_.drain_seconds));
  const auto all_finished = [&] {
    return std::all_of(live.begin(), live.end(), [](Connection* c) {
      return c->finished.load(std::memory_order_acquire);
    });
  };
  while (!all_finished() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Past the budget: flip cancel tokens on everything still pending or
  // being waited on. Writers then complete quickly (cancelled results) and
  // connections wind down.
  if (!all_finished()) {
    for (Connection* conn : live) conn->session.cancel_all();
  }

  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
  conns_.clear();
}

}  // namespace net
}  // namespace qfto
