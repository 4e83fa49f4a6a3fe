// Sharded LRU cache of MapSummary values — the ROADMAP's "result caching /
// memoization" item. The analytical mappers are deterministic, so a repeated
// (engine, native n, option fingerprint) request can be served bit-identically
// at zero cost; the MappingService consults this cache before dispatching a
// job to the worker pool. An entry holds sizes, the verdict and the fidelity
// estimate, never gates, so it costs a few hundred bytes at any n. Shards
// each carry their own mutex so concurrent workers on different keys never
// contend on one lock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pipeline/mapper_pipeline.hpp"

namespace qfto {

class ResultCache {
 public:
  /// `capacity` is the total entry budget across all shards (0 disables the
  /// cache: get() always misses, put() drops). `shards` is clamped to >= 1.
  /// `ttl_seconds` > 0 bounds every entry's age: a get() older than the TTL
  /// expires the entry lazily (counted in Stats::expired, served as a miss).
  /// 0 disables aging — device-less topologies never go stale, but a
  /// calibration-keyed entry outliving its device's recalibration window
  /// should not be served forever.
  explicit ResultCache(std::size_t capacity = 1024, std::size_t shards = 8,
                       double ttl_seconds = 0.0);

  /// Canonical cache key: engine, *native* size, and every MapOptions field
  /// that shapes the result. Serving knobs (cancel, deadline_seconds,
  /// satmap.dump_cnf_path, satmap.stats_out, sabre.stats_out) and `target`
  /// are excluded — keys are only built for cacheable requests.
  /// General-circuit requests pass their circuit: its content fingerprint
  /// joins the key, so two different circuits of the same size and options
  /// occupy distinct entries, and a QFT request never aliases a general one.
  static std::string key(const std::string& engine, std::int32_t native_n,
                         const MapOptions& opts,
                         const Circuit* circuit = nullptr);

  /// True when a request may be served from / stored into the cache: the
  /// engine replays deterministically and no caller-owned raw graph/device
  /// pointer is involved (a raw pointer cannot be fingerprinted safely).
  /// MapOptions::device *is* cacheable — its content fingerprint joins the
  /// key, so identical shapes with different calibration never collide.
  static bool cacheable(const MapperEngine& engine, const MapOptions& opts);

  /// Hit: the cached summary, promoted to most-recently-used. Miss: nullptr.
  std::shared_ptr<const MapSummary> get(const std::string& key);

  /// Inserts (or refreshes) `value`, evicting the shard's LRU tail when over
  /// budget.
  void put(const std::string& key, std::shared_ptr<const MapSummary> value);

  void clear();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /// Entries dropped by TTL aging (each also counts as a miss).
    std::uint64_t expired = 0;
    /// Malformed records skipped (not loaded) by load() over this cache's
    /// lifetime — one corrupt entry costs exactly that entry.
    std::uint64_t load_quarantined = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;  // configured global bound (entries <= capacity)
  };
  /// Aggregated over shards (each shard is locked in turn, so the totals are
  /// a consistent-enough snapshot for monitoring, not a barrier).
  Stats stats() const;

  std::size_t capacity() const { return capacity_; }
  double ttl_seconds() const { return ttl_seconds_; }

  /// Cross-process persistence (--cache-file): writes every resident entry
  /// in a line-oriented text format (%.17g fidelity, so a reloaded entry
  /// serves bit-identical responses). Entries are written LRU-first per
  /// shard; load() re-inserts in file order, so the recency order survives
  /// the round trip. Returns false when the stream fails mid-write.
  bool save(std::ostream& out) const;

  /// save() to `path` crash-safely: the bytes go to a sibling temp file,
  /// which is fsynced and atomically renamed over `path` — a crash or
  /// SIGKILL at any instant leaves either the old file or the new one,
  /// never a truncation. False with a message in `error` on any failure
  /// (the temp file is removed; `path` is untouched).
  bool save_file(const std::string& path, std::string* error = nullptr) const;

  /// Restores entries written by save() through the normal put() path (the
  /// capacity bound applies; a smaller cache keeps the most recent tail).
  /// False with a message in `error` on a bad magic line, a file of
  /// another `qftmap-cache` version (the message names both versions) or an
  /// injected read failure. A malformed *entry* does not abort the load: the
  /// record is quarantined (counted in Stats::load_quarantined and
  /// summarized in `error`, which can be set even when load returns true)
  /// and reading resynchronizes at the next "entry" line — one corrupt
  /// record must not discard an entire warmed cache.
  bool load(std::istream& in, std::string* error = nullptr);

 private:
  /// One resident entry. `inserted` drives TTL aging; reloaded (load())
  /// entries get a fresh timestamp — persistence does not preserve age.
  struct Entry {
    std::string key;
    std::shared_ptr<const MapSummary> value;
    std::chrono::steady_clock::time_point inserted;
  };

  struct Shard {
    std::mutex mutex;
    /// This shard's slice of the global budget: base capacity/shards, the
    /// first capacity%shards shards carry one extra — the quotas sum to
    /// exactly `capacity`, so total resident entries can never exceed it
    /// (the old ceil-rounded shared bound could overshoot by shards-1).
    std::size_t capacity = 0;
    // MRU at front; map values point into the list.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t expired = 0;
  };

  Shard& shard_for(const std::string& key);

  std::size_t capacity_;
  double ttl_seconds_ = 0.0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> load_quarantined_{0};
};

}  // namespace qfto
