#include "support.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

extern char** environ;

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ Rng --

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

// ----------------------------------------------------------- statistics --

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Tail tail_latency(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond < 10.0) break;
    t.percentile = p;
    t.value = quantile(v, p / 100.0);
  }
  return t;
}

// ----------------------------------------------------------------- JSON --

const Json* Json::get(const std::string& key) const {
  const auto it = fields.find(key);
  return it == fields.end() ? nullptr : &it->second;
}

double Json::number(const std::string& key, double fallback) const {
  const Json* v = get(key);
  return v != nullptr && v->kind == kNumber ? v->num : fallback;
}

std::string Json::text(const std::string& key) const {
  const Json* v = get(key);
  return v != nullptr && v->kind == kString ? v->raw : std::string();
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool document(Json& out) {
    if (!value(out, 0)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_]) != nullptr) ++i_;
  }

  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (s_.compare(i_, len, word) != 0) return false;
    i_ += len;
    return true;
  }

  bool string(std::string& out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        c = s_[i_++];
        switch (c) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // Kept verbatim: the benchmark only compares strings.
            if (i_ + 4 > s_.size()) return false;
            out += "\\u" + s_.substr(i_, 4);
            i_ += 4;
            break;
          default: out += c;
        }
      } else {
        out += c;
      }
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }

  bool value(Json& out, int depth) {
    if (depth > 32) return false;
    ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      out.kind = Json::kObject;
      ++i_;
      ws();
      if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
      while (true) {
        ws();
        std::string key;
        if (!string(key)) return false;
        ws();
        if (i_ >= s_.size() || s_[i_] != ':') return false;
        ++i_;
        Json v;
        if (!value(v, depth + 1)) return false;
        out.fields[key] = std::move(v);
        ws();
        if (i_ < s_.size() && s_[i_] == ',') { ++i_; continue; }
        if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
        return false;
      }
    }
    if (c == '[') {
      out.kind = Json::kArray;
      ++i_;
      ws();
      if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
      while (true) {
        Json v;
        if (!value(v, depth + 1)) return false;
        out.items.push_back(std::move(v));
        ws();
        if (i_ < s_.size() && s_[i_] == ',') { ++i_; continue; }
        if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
        return false;
      }
    }
    if (c == '"') {
      out.kind = Json::kString;
      return string(out.raw);
    }
    if (literal("true")) { out.kind = Json::kBool; out.flag = true; return true; }
    if (literal("false")) { out.kind = Json::kBool; return true; }
    if (literal("null")) { out.kind = Json::kNull; return true; }
    const std::size_t start = i_;
    while (i_ < s_.size() && std::strchr("+-0123456789.eE", s_[i_]) != nullptr) {
      ++i_;
    }
    if (i_ == start) return false;
    out.kind = Json::kNumber;
    out.raw = s_.substr(start, i_ - start);
    char* end = nullptr;
    out.num = std::strtod(out.raw.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

bool parse_json(const std::string& text, Json& out) {
  out = Json{};
  return JsonParser(text).document(out);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// ---------------------------------------------------------------- Trace --

std::int64_t Trace::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Trace::add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Trace::Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Trace::self_times() const {
  const std::vector<Span> all = spans();
  std::map<std::int64_t, double> child_time;
  for (const Span& s : all) {
    if (s.parent != 0) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (const Span& s : all) {
    const auto it = child_time.find(s.id);
    const double covered = it == child_time.end() ? 0.0 : it->second;
    self[s.name] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

bool Trace::write_chrome_json(const std::string& path, double origin) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
        << json_escape(s.name.substr(0, s.name.find('.')))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << json_number((s.start - origin) * 1e6)
        << ",\"dur\":" << json_number((s.end - s.start) * 1e6)
        << ",\"args\":{\"span_id\":" << s.id << ",\"parent_id\":" << s.parent
        << ",\"request_id\":\"" << json_escape(s.request) << "\""
        << (s.args.empty() ? "" : ",") << s.args << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Trace* trace, std::string name, std::int64_t parent,
                       std::string request, int tid)
    : trace_(trace) {
  if (trace_ == nullptr || !trace_->enabled()) {
    trace_ = nullptr;
  } else {
    span_.name = std::move(name);
    span_.id = trace_->next_id();
    span_.parent = parent;
    span_.request = std::move(request);
    span_.tid = tid;
  }
  span_.start = now_s();
}

ScopedSpan::~ScopedSpan() { finish(); }

void ScopedSpan::arg(const std::string& key, const std::string& value) {
  if (trace_ == nullptr) return;
  if (!span_.args.empty()) span_.args += ',';
  span_.args += "\"" + json_escape(key) + "\":" + value;
}

double ScopedSpan::finish() {
  if (!done_) {
    done_ = true;
    span_.end = now_s();
    if (trace_ != nullptr) trace_->add(span_);
  }
  return span_.end - span_.start;
}

// ---------------------------------------------------------------- Child --

std::unique_ptr<Child> Child::spawn(const std::vector<std::string>& argv,
                                    bool pipe_stdout, bool pipe_stderr) {
  std::unique_ptr<Child> child(new Child());
  int pipes[3][2] = {{-1, -1}, {-1, -1}, {-1, -1}};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  for (const int which : {1, 2}) {
    if (which == 1 ? !pipe_stdout : !pipe_stderr) continue;
    if (pipe2(pipes[which], O_CLOEXEC) != 0) {
      posix_spawn_file_actions_destroy(&actions);
      return nullptr;
    }
    posix_spawn_file_actions_adddup2(&actions, pipes[which][1], which);
  }
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc = posix_spawn(&child->pid_, args[0], &actions, nullptr,
                             args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  for (const int which : {1, 2}) {
    if (pipes[which][1] >= 0) close(pipes[which][1]);
    child->fd_[which] = pipes[which][0];
  }
  if (rc != 0) {
    child->pid_ = -1;
    return nullptr;
  }
  return child;
}

Child::~Child() {
  if (pid_ > 0) stop(SIGKILL, 5.0);
  for (int& fd : fd_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
}

bool Child::read_line(int which, std::string& line, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  std::string& buf = buf_[which];
  while (true) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    const double left = deadline - now_s();
    if (fd_[which] < 0 || left <= 0.0) return false;
    pollfd p{fd_[which], POLLIN, 0};
    const int ready = poll(&p, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[4096];
    const ssize_t got = read(fd_[which], chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(got));
  }
}

long Child::stop(int sig, double grace_s) {
  if (pid_ <= 0) return 0;
  kill(pid_, sig);
  const double deadline = now_s() + grace_s;
  int status = 0;
  rusage usage{};
  while (true) {
    const pid_t got = wait4(pid_, &status, WNOHANG, &usage);
    if (got == pid_ || (got < 0 && errno != EINTR)) break;
    if (now_s() > deadline) {
      kill(pid_, SIGKILL);
      wait4(pid_, &status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return usage.ru_maxrss;
}

int Child::wait_exit(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  int status = 0;
  while (pid_ > 0) {
    const pid_t got = waitpid(pid_, &status, WNOHANG);
    if (got == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (got < 0 && errno != EINTR) break;
    if (now_s() > deadline) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop(SIGKILL, 5.0);
  return -1;
}

// -------------------------------------------------------------- Request --

std::string Request::label() const {
  std::string s = is_circuit() ? circuit_id : "n=" + std::to_string(n);
  if (!device_id.empty()) s += "@" + device_id;
  return s;
}

std::string Request::line(const std::string& id) const {
  std::string s = "{\"id\":\"" + json_escape(id) + "\",\"engine\":\"" +
                  json_escape(engine) + "\"";
  if (is_circuit()) {
    s += ",\"qasm\":\"" + json_escape(qasm) + "\"";
  } else {
    s += ",\"n\":" + std::to_string(n);
  }
  if (!device_json.empty()) {
    s += ",\"device\":\"" + json_escape(device_json) + "\"";
  }
  if (!objective.empty()) s += ",\"objective\":\"" + objective + "\"";
  if (trials > 0) s += ",\"trials\":" + std::to_string(trials);
  if (seed >= 0) s += ",\"seed\":" + std::to_string(seed);
  if (budget > 0.0) s += ",\"budget\":" + json_number(budget);
  return s + "}";
}

void print_row(const Row& r) {
  std::printf(
      "row workload=%s id=%s engine=%s input=%s seconds=%.6f depth=%lld "
      "swaps=%lld log10_fidelity=%.6f status=%s%s%s\n",
      r.workload.c_str(), r.request_id.c_str(), r.engine.c_str(),
      r.label.c_str(), r.seconds, static_cast<long long>(r.depth),
      static_cast<long long>(r.swaps), r.log10_fidelity, r.status.c_str(),
      r.detail.empty() ? "" : " detail=", json_escape(r.detail).c_str());
}

bool is_known_failure(const std::string& error) {
  return error.find("swap cap exceeded") != std::string::npos;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
