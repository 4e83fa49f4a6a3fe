#include "service/net_server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>

#include "common/fault.hpp"

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

}  // namespace

/// One queued response slot: a JobHandle the writer will wait on, a metrics
/// snapshot the writer renders when it reaches the slot (so it counts every
/// response written ahead of it), or a pre-formatted immediate body (parse
/// errors, shed notices).
struct NetServer::Pending {
  enum class Kind { kJob, kMetrics, kImmediate, kParseError, kShed };

  Kind kind = Kind::kImmediate;
  std::string id = "null";
  JobHandle handle;       // kJob
  std::string immediate;  // everything else
  bool http = false;
  const char* http_status = "200 OK";
};

struct NetServer::Connection {
  explicit Connection(Socket s) : sock(std::move(s)) {}

  Socket sock;

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> pending;   // response queue, request order
  std::size_t jobs_pending = 0;  // entries in `pending` that carry a job
  JobHandle writing;             // job the writer is currently waiting on
  bool reader_done = false;
  bool dead = false;  // writer hit a send failure; connection is abandoned

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
    auto conn = std::make_unique<Connection>(std::move(sock));
    Connection* c = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(std::move(conn));
    }
    c->reader = std::thread([this, c] { serve_connection(*c); });
    c->writer = std::thread([this, c] { writer_loop(*c); });
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

NetServer::Pending NetServer::make_entry(Connection& conn,
                                         std::string_view payload) {
  metrics_.requests.fetch_add(1, std::memory_order_relaxed);
  Pending entry;
  ServeRequest req = parse_serve_request(payload);
  metrics_.record_request(req);
  entry.id = req.id;
  if (!req.ok) {
    metrics_.parse_errors.fetch_add(1, std::memory_order_relaxed);
    JobResult rejected;
    rejected.status = JobStatus::kFailed;
    rejected.error = req.error;
    entry.kind = Pending::Kind::kParseError;
    entry.immediate = serve_response_json(req.id, rejected);
    return entry;
  }
  if (req.metrics) {
    entry.kind = Pending::Kind::kMetrics;
    return entry;
  }
  // Admission control. Both bounds are advisory point-in-time reads — two
  // racing readers may both admit at the edge — which is fine: the bound
  // exists to stop unbounded queue growth, not to be an exact semaphore.
  if (QFTO_FAULT_POINT("serve.admit.shed")) {
    metrics_.shed.fetch_add(1, std::memory_order_relaxed);
    entry.kind = Pending::Kind::kShed;
    entry.immediate = serve_inband_error(
        req.id, "shed", "injected fault: admission rejected; retry later");
    return entry;
  }
  if (options_.max_inflight > 0 &&
      metrics_.in_flight.load(std::memory_order_relaxed) >=
          static_cast<std::int64_t>(options_.max_inflight)) {
    metrics_.shed.fetch_add(1, std::memory_order_relaxed);
    entry.kind = Pending::Kind::kShed;
    entry.immediate = serve_inband_error(
        req.id, "shed",
        "server at max in-flight jobs (" +
            std::to_string(options_.max_inflight) + "); retry later");
    return entry;
  }
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    if (options_.max_pending_per_conn > 0 &&
        conn.jobs_pending >= options_.max_pending_per_conn) {
      metrics_.shed.fetch_add(1, std::memory_order_relaxed);
      entry.kind = Pending::Kind::kShed;
      entry.immediate = serve_inband_error(
          req.id, "shed",
          "connection at max pending requests (" +
              std::to_string(options_.max_pending_per_conn) +
              "); read responses before sending more");
      return entry;
    }
  }
  entry.kind = Pending::Kind::kJob;
  entry.handle = service_->submit(std::move(req.request), req.submit);
  metrics_.in_flight.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

void NetServer::serve_connection(Connection& conn) {
  LineReader reader(conn.sock, options_.max_line);
  // Back-pressure: the reader stalls once the writer is this far behind, so
  // a client that writes without reading cannot grow the response queue
  // without bound. Above max_pending_per_conn so shed notices still queue.
  const std::size_t backlog_bound = options_.max_pending_per_conn + 64;
  const auto push = [&](Pending entry) {
    bool was_dead;
    {
      std::unique_lock<std::mutex> lock(conn.mutex);
      conn.cv.wait(lock, [&] {
        return conn.dead || conn.pending.size() < backlog_bound;
      });
      was_dead = conn.dead;
      if (!was_dead) {
        if (entry.kind == Pending::Kind::kJob) ++conn.jobs_pending;
        conn.pending.push_back(std::move(entry));
      }
    }
    if (was_dead) {
      // The writer is gone; nobody will drain this entry.
      if (entry.handle.valid()) {
        entry.handle.cancel();
        metrics_.in_flight.fetch_sub(1, std::memory_order_relaxed);
      }
      return false;
    }
    conn.cv.notify_all();
    return true;
  };

  std::string line;
  bool first = true;
  while (reader.next(line)) {
    if (first && looks_http(line)) {
      serve_http(conn, reader, line);
      break;
    }
    first = false;
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (!push(make_entry(conn, line))) break;
  }
  if (reader.status() == LineReader::Status::kOverflow) {
    // Protocol violation: report in-band, then stop reading — the rest of
    // the stream has no trustworthy framing.
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.parse_errors.fetch_add(1, std::memory_order_relaxed);
    Pending entry;
    entry.kind = Pending::Kind::kParseError;
    entry.immediate = serve_inband_error(
        "null", "error",
        "request line exceeds " + std::to_string(options_.max_line) +
            " bytes");
    push(std::move(entry));
  }
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.reader_done = true;
  }
  conn.cv.notify_all();
  conn.mark_exited();
}

void NetServer::serve_http(Connection& conn, LineReader& reader,
                           const std::string& request_line) {
  const auto push = [&](Pending entry) {
    {
      std::lock_guard<std::mutex> lock(conn.mutex);
      if (conn.dead) return;
      if (entry.kind == Pending::Kind::kJob) ++conn.jobs_pending;
      conn.pending.push_back(std::move(entry));
    }
    conn.cv.notify_all();
  };
  const auto simple = [&](const char* status, const std::string& word,
                          const std::string& error) {
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    Pending entry;
    entry.http = true;
    entry.http_status = status;
    entry.immediate = serve_inband_error("null", word, error);
    push(std::move(entry));
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
    Pending entry;
    entry.kind = Pending::Kind::kMetrics;
    entry.http = true;
    push(std::move(entry));
    return;
  }
  if (method == "POST" && path == "/map") {
    if (content_length < 0 ||
        content_length > static_cast<long long>(options_.max_line)) {
      simple("411 Length Required", "error",
             "POST /map requires a Content-Length within the line bound");
      return;
    }
    std::string body;
    if (!reader.read_exact(static_cast<std::size_t>(content_length), body)) {
      return;  // body never arrived; nothing to answer
    }
    Pending entry = make_entry(conn, body);
    entry.http = true;
    if (entry.kind == Pending::Kind::kParseError) {
      entry.http_status = "400 Bad Request";
    } else if (entry.kind == Pending::Kind::kShed) {
      entry.http_status = "503 Service Unavailable";
    }
    push(std::move(entry));
    return;
  }
  simple("404 Not Found", "error",
         "unsupported endpoint (GET /metrics, POST /map)");
}

void NetServer::writer_loop(Connection& conn) {
  for (;;) {
    Pending entry;
    {
      std::unique_lock<std::mutex> lock(conn.mutex);
      conn.cv.wait(lock, [&] {
        return conn.dead || conn.reader_done || !conn.pending.empty();
      });
      if (conn.dead || conn.pending.empty()) break;  // abandoned or drained
      entry = std::move(conn.pending.front());
      conn.pending.pop_front();
      if (entry.kind == Pending::Kind::kJob) {
        --conn.jobs_pending;
        // Visible to stop_and_drain so a past-budget drain can cancel the
        // job this writer is about to block on.
        conn.writing = entry.handle;
      }
    }
    conn.cv.notify_all();  // reader may be waiting on the back-pressure bound

    std::string body;
    if (entry.handle.valid()) {
      const JobResult result = entry.handle.wait();
      metrics_.record_result(result);
      metrics_.in_flight.fetch_sub(1, std::memory_order_relaxed);
      body = serve_response_json(entry.id, result);
      std::lock_guard<std::mutex> lock(conn.mutex);
      conn.writing = JobHandle();
    } else if (entry.kind == Pending::Kind::kMetrics) {
      body = metrics_json(*service_, metrics_);
    } else {
      body = entry.immediate;
    }

    const bool sent =
        entry.http ? conn.sock.send_all(http_response(entry.http_status, body))
                   : conn.sock.send_all(body + "\n");
    if (!sent) {
      // Dead client: stop the reader, drop the backlog, cancel its jobs —
      // the pool must not grind through work nobody can receive.
      std::deque<Pending> orphans;
      {
        std::lock_guard<std::mutex> lock(conn.mutex);
        conn.dead = true;
        orphans.swap(conn.pending);
        conn.jobs_pending = 0;
      }
      conn.cv.notify_all();
      conn.sock.shutdown_read();
      for (Pending& orphan : orphans) {
        if (orphan.handle.valid()) {
          orphan.handle.cancel();
          metrics_.in_flight.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      break;
    }
    metrics_.responses.fetch_add(1, std::memory_order_relaxed);
  }
  conn.mark_exited();
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
    for (Connection* conn : live) {
      std::lock_guard<std::mutex> lock(conn->mutex);
      for (Pending& entry : conn->pending) {
        if (entry.handle.valid()) entry.handle.cancel();
      }
      if (conn->writing.valid()) conn->writing.cancel();
    }
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
