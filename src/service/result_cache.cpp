#include "service/result_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <istream>
#include <ostream>
#include <sstream>

#include "arch/device_model.hpp"
#include "common/fault.hpp"

namespace qfto {

namespace {

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity, std::size_t shards,
                         double ttl_seconds)
    : capacity_(capacity), ttl_seconds_(ttl_seconds > 0.0 ? ttl_seconds : 0.0) {
  shards = std::max<std::size_t>(1, std::min(shards, std::max<std::size_t>(
                                                         1, capacity)));
  shards_.reserve(shards);
  // Exact split of the global budget: quotas sum to `capacity`, never more.
  const std::size_t base = capacity / shards;
  const std::size_t extra = capacity % shards;
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < extra ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

std::string ResultCache::key(const std::string& engine, std::int32_t native_n,
                             const MapOptions& opts, const Circuit* circuit) {
  std::string k;
  k.reserve(engine.size() + 160);
  k += engine;
  k += '|';
  k += std::to_string(native_n);
  if (circuit != nullptr) {
    // Content fingerprint + gate count: distinct circuits get distinct keys,
    // and "qft" (no |circ= segment) can never alias a general request.
    k += "|circ=";
    k += std::to_string(circuit->fingerprint());
    k += ':';
    k += std::to_string(circuit->size());
  }
  k += "|ie=";
  k += opts.strict_ie ? '1' : '0';
  k += "|po=";
  k += std::to_string(opts.lattice_phase_offset);
  k += "|tus=";
  k += opts.transversal_unit_swap ? '1' : '0';
  k += "|sabre=";
  k += std::to_string(opts.sabre.seed);
  k += ',';
  k += std::to_string(opts.sabre.trials);
  k += ',';
  k += std::to_string(opts.sabre.bidirectional_passes);
  k += ',';
  append_double(k, opts.sabre.extended_weight);
  k += ',';
  k += std::to_string(opts.sabre.extended_size);
  k += ',';
  append_double(k, opts.sabre.decay_delta);
  k += ',';
  k += std::to_string(opts.sabre.decay_reset);
  k += ',';
  k += opts.sabre.use_relaxed_dag ? '1' : '0';
  k += ',';
  k += opts.sabre.fidelity_objective ? '1' : '0';
  k += ',';
  append_double(k, opts.sabre.fidelity_weight);
  k += "|satmap=";
  append_double(k, opts.satmap.time_budget_seconds);
  k += ',';
  k += std::to_string(opts.satmap.max_layers);
  k += ',';
  k += opts.satmap.minimize_swaps ? '1' : '0';
  k += ',';
  // A stale hit across solver backends would silently return wrong-backend
  // results; the backend shapes the (non-deterministic TLE-vs-solved)
  // outcome, so it fragments the key even though SATMAP itself is never
  // cached today.
  k += opts.satmap.solver;
  k += "|verify=";
  k += opts.verify ? '1' : '0';
  k += "|obj=";
  k += static_cast<char>('0' + static_cast<int>(opts.objective));
  if (opts.device != nullptr) {
    // Content fingerprint, not identity: two devices with the same shape but
    // different calibration produce different keys; relabeling (name only)
    // does not fragment the cache.
    k += "|dev=";
    k += std::to_string(opts.device->fingerprint());
  }
  return k;
}

bool ResultCache::cacheable(const MapperEngine& engine,
                            const MapOptions& opts) {
  // A raw target graph or a directly-injected SabreOptions::device pointer
  // cannot be fingerprinted; the supported calibrated path is
  // MapOptions::device, whose content hash joins the key.
  return engine.deterministic() && opts.target == nullptr &&
         opts.sabre.device == nullptr;
}

ResultCache::Shard& ResultCache::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::shared_ptr<const MapSummary> ResultCache::get(const std::string& key) {
  if (capacity_ == 0) return nullptr;
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    ++s.misses;
    return nullptr;
  }
  if (ttl_seconds_ > 0.0) {
    // Lazy expiry: age is checked on access, so a stale entry costs nothing
    // until someone asks for it — and then costs exactly one re-map.
    const double age = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() -
                           it->second->inserted)
                           .count();
    if (age > ttl_seconds_) {
      s.lru.erase(it->second);
      s.index.erase(it);
      ++s.expired;
      ++s.misses;
      return nullptr;
    }
  }
  ++s.hits;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // promote to MRU
  return it->second->value;
}

void ResultCache::put(const std::string& key,
                      std::shared_ptr<const MapSummary> value) {
  if (capacity_ == 0 || value == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    it->second->value = std::move(value);
    it->second->inserted = now;  // a refresh restarts the TTL clock
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.lru.push_front(Entry{key, std::move(value), now});
  s.index.emplace(key, s.lru.begin());
  ++s.insertions;
  while (s.lru.size() > s.capacity) {
    s.index.erase(s.lru.back().key);
    s.lru.pop_back();
    ++s.evictions;
  }
}

void ResultCache::clear() {
  for (auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mutex);
    sp->lru.clear();
    sp->index.clear();
  }
}

ResultCache::Stats ResultCache::stats() const {
  Stats total;
  total.capacity = capacity_;
  total.load_quarantined = load_quarantined_.load(std::memory_order_relaxed);
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mutex);
    total.hits += sp->hits;
    total.misses += sp->misses;
    total.insertions += sp->insertions;
    total.evictions += sp->evictions;
    total.expired += sp->expired;
    total.entries += sp->lru.size();
  }
  return total;
}

// ------------------------------------------------------------ persistence --
// Line-oriented text format, one record per resident entry. Every
// variable-length field is length-prefixed (keys and error texts may contain
// anything), and the fidelity is written %.17g, so a reloaded entry is
// bit-identical to the one saved. Timings and requested_n describe one
// request, not the mapping (a hit reports its own on JobResult), so only the
// identity fields, the register size, the check report and the fidelity need
// to survive.

namespace {

// Version 2 added the per-entry "fid" record (MapResult::log10_fidelity).
// Version 3 dropped the characters of retired SATMAP search options from
// every ResultCache::key (not only SATMAP keys), so no request can hit a v2
// entry any more; loading one would only hold LRU capacity. Version 4 dropped
// the verify-strategy character after "|verify=" for the same reason.
// Version 5 holds summaries: the QASM blob and the graph's edge list gave
// way to the register size ("physical"). A file of another version fails
// the load, naming both versions, and the service starts cold — acceptable
// for a cache, never silently wrong.
constexpr const char* kCacheMagicPrefix = "qftmap-cache ";
constexpr const char* kCacheVersion = "5";

void write_blob(std::ostream& out, const char* tag, const std::string& bytes) {
  out << tag << ' ' << bytes.size() << '\n' << bytes << '\n';
}

bool read_line(std::istream& in, std::string& line, std::string& error,
               const char* what) {
  if (!std::getline(in, line)) {
    error = std::string("cache load: truncated stream (expected ") + what +
            ")";
    return false;
  }
  return true;
}

bool read_blob(std::istream& in, std::size_t len, std::string& bytes,
               std::string& error, const char* what) {
  bytes.resize(len);
  if (len > 0 && !in.read(&bytes[0], static_cast<std::streamsize>(len))) {
    error = std::string("cache load: truncated ") + what + " payload";
    return false;
  }
  if (in.get() != '\n') {
    error = std::string("cache load: missing newline after ") + what;
    return false;
  }
  return true;
}

}  // namespace

bool ResultCache::save(std::ostream& out) const {
  out << kCacheMagicPrefix << kCacheVersion << '\n';
  for (const auto& sp : shards_) {
    // Snapshot under the lock (shared_ptr copies), serialize outside it.
    std::vector<std::pair<std::string, std::shared_ptr<const MapSummary>>>
        entries;
    {
      std::lock_guard<std::mutex> lock(sp->mutex);
      entries.reserve(sp->lru.size());
      // LRU-first: load() re-inserts in file order, so the last entry
      // written (the MRU) becomes the MRU again.
      for (auto it = sp->lru.rbegin(); it != sp->lru.rend(); ++it) {
        entries.emplace_back(it->key, it->value);
      }
    }
    for (const auto& [key, result] : entries) {
      const MapSummary& r = *result;
      if (QFTO_FAULT_POINT("cache.save.write")) {
        // Injected mid-save stream failure: the half-written output must be
        // reported failed, and save_file must leave the target untouched.
        out.setstate(std::ios::failbit);
        return false;
      }
      out << "entry\n";
      write_blob(out, "key", key);
      write_blob(out, "engine", r.engine);
      out << "n " << r.n << '\n';
      out << "physical " << r.physical << '\n';
      out << "check " << (r.check.ok ? 1 : 0) << ' ' << r.check.depth << ' '
          << r.check.counts.h << ' ' << r.check.counts.x << ' '
          << r.check.counts.rz << ' ' << r.check.counts.cphase << ' '
          << r.check.counts.swap << ' ' << r.check.counts.cnot << ' '
          << r.check.error.size() << '\n'
          << r.check.error << '\n';
      {
        char fid[40];
        std::snprintf(fid, sizeof(fid), "%.17g", r.log10_fidelity);
        out << "fid " << fid << '\n';
      }
      out << "end\n";
    }
  }
  return static_cast<bool>(out);
}

namespace {

/// One parsed record, ready for put(). On failure `reason` says why; the
/// stream is left wherever parsing stopped and the caller resynchronizes.
struct ParsedCacheEntry {
  std::string key;
  std::shared_ptr<MapSummary> result;
};

bool parse_cache_entry(std::istream& in, ParsedCacheEntry& out,
                       std::string& reason) {
  std::string line;
  const auto fail = [&](const std::string& what) {
    reason = what;
    return false;
  };
  std::string err;
  std::size_t len = 0;
  std::string key, engine;
  // key
  if (!read_line(in, line, err, "key")) return fail(err);
  if (std::sscanf(line.c_str(), "key %zu", &len) != 1) {
    return fail("bad key header");
  }
  if (!read_blob(in, len, key, err, "key")) return fail(err);
  // engine
  if (!read_line(in, line, err, "engine")) return fail(err);
  if (std::sscanf(line.c_str(), "engine %zu", &len) != 1) {
    return fail("bad engine header");
  }
  if (!read_blob(in, len, engine, err, "engine")) return fail(err);
  // n
  long long n = 0;
  if (!read_line(in, line, err, "n")) return fail(err);
  if (std::sscanf(line.c_str(), "n %lld", &n) != 1 || n < 1 ||
      n > 16'777'216) {
    return fail("bad n");
  }
  // register size
  long long physical = 0;
  if (!read_line(in, line, err, "physical")) return fail(err);
  if (std::sscanf(line.c_str(), "physical %lld", &physical) != 1 ||
      physical < n || physical > kMaxQubits) {
    return fail("bad physical");
  }
  // check report
  int check_ok = 0;
  long long depth = 0, h = 0, x = 0, rz = 0, cphase = 0, swap = 0, cnot = 0;
  std::size_t err_len = 0;
  if (!read_line(in, line, err, "check")) return fail(err);
  if (std::sscanf(line.c_str(),
                  "check %d %lld %lld %lld %lld %lld %lld %lld %zu",
                  &check_ok, &depth, &h, &x, &rz, &cphase, &swap, &cnot,
                  &err_len) != 9) {
    return fail("bad check header");
  }
  std::string check_error;
  if (!read_blob(in, err_len, check_error, err, "check error")) {
    return fail(err);
  }
  // fidelity estimate
  double fid = 0.0;
  if (!read_line(in, line, err, "fid")) return fail(err);
  if (std::sscanf(line.c_str(), "fid %lf", &fid) != 1 || fid > 0.0 ||
      std::isnan(fid)) {
    return fail("bad fid");
  }
  if (!read_line(in, line, err, "end")) return fail(err);
  if (line != "end") return fail("expected \"end\"");

  auto result = std::make_shared<MapSummary>();
  result->engine = std::move(engine);
  result->requested_n = static_cast<std::int32_t>(n);
  result->n = static_cast<std::int32_t>(n);
  result->physical = static_cast<std::int32_t>(physical);
  result->check.ok = check_ok != 0;
  result->check.error = std::move(check_error);
  result->check.depth = static_cast<Cycle>(depth);
  result->check.counts.h = h;
  result->check.counts.x = x;
  result->check.counts.rz = rz;
  result->check.counts.cphase = cphase;
  result->check.counts.swap = swap;
  result->check.counts.cnot = cnot;
  result->log10_fidelity = fid;
  out.key = std::move(key);
  out.result = std::move(result);
  return true;
}

}  // namespace

bool ResultCache::load(std::istream& in, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  std::string line;
  if (QFTO_FAULT_POINT("cache.load.fail")) {
    return fail("cache load: injected read failure");
  }
  if (!std::getline(in, line) || line.rfind(kCacheMagicPrefix, 0) != 0) {
    return fail("cache load: bad magic (not a qftmap cache file?)");
  }
  const std::string version = line.substr(std::strlen(kCacheMagicPrefix));
  if (version.empty() ||
      version.find_first_not_of("0123456789") != std::string::npos) {
    return fail("cache load: bad magic (not a qftmap cache file?)");
  }
  if (version != kCacheVersion) {
    return fail("cache load: file is qftmap-cache version " + version +
                ", this build reads version " + kCacheVersion);
  }
  // Quarantine discipline: a record that fails to parse costs exactly that
  // record. We count it, remember the first reason for the error summary,
  // and resynchronize at the next "entry" marker — blob payloads can contain
  // anything, so resync is best-effort, but a wrong resync point just
  // quarantines one more record, never crashes the load.
  std::uint64_t quarantined = 0;
  std::string first_reason;
  const auto quarantine = [&](const std::string& reason) {
    ++quarantined;
    if (first_reason.empty()) first_reason = reason;
    while (std::getline(in, line)) {
      if (line == "entry") return true;  // resynced: parse from here
    }
    return false;  // EOF while scanning
  };
  bool at_entry = false;  // "entry" already consumed by a resync scan
  for (;;) {
    if (!at_entry) {
      if (!std::getline(in, line)) break;
      if (line.empty()) continue;
      if (line != "entry") {
        if (!quarantine("expected \"entry\", got \"" + line + "\"")) break;
        at_entry = true;
        continue;
      }
    }
    at_entry = false;
    ParsedCacheEntry entry;
    std::string reason;
    if (parse_cache_entry(in, entry, reason)) {
      put(entry.key, std::move(entry.result));
    } else {
      at_entry = quarantine(reason);
      if (!at_entry && in.eof()) break;
    }
  }
  if (quarantined > 0) {
    load_quarantined_.fetch_add(quarantined, std::memory_order_relaxed);
    if (error != nullptr) {
      *error = "cache load: quarantined " + std::to_string(quarantined) +
               " malformed record(s) (first: " + first_reason + ")";
    }
  }
  return true;
}

bool ResultCache::save_file(const std::string& path, std::string* error) const {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  // Temp file beside the target (same directory, so rename() is atomic and
  // never crosses a filesystem), then fsync + rename: a crash or SIGKILL at
  // any instant leaves either the complete old file or the complete new one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return fail("cache save: cannot open " + tmp);
    if (!save(out)) {
      out.close();
      std::remove(tmp.c_str());
      return fail("cache save: write to " + tmp + " failed");
    }
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return fail("cache save: flush of " + tmp + " failed");
    }
  }
  // Push the bytes to stable storage before the rename publishes them — a
  // rename that beats the data to disk could publish an empty file across a
  // power loss.
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  if (QFTO_FAULT_POINT("cache.save.rename")) {
    std::remove(tmp.c_str());
    return fail("cache save: injected rename failure");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    std::remove(tmp.c_str());
    return fail("cache save: rename to " + path + " failed: " + why);
  }
  return true;
}

}  // namespace qfto
