// Async mapping service — the ROADMAP's north-star serving path. A
// MappingService owns a persistent worker pool and a priority job queue in
// front of the MapperPipeline registry: submit() returns a JobHandle
// supporting wait / try_get / cancel and per-job deadlines, and a sharded
// LRU ResultCache serves repeated deterministic requests bit-identically at
// zero cost. Jobs produce MapSummary values, not circuits: QFT jobs run
// MapperPipeline::summarize, so a structured mapper stores no gate, and a
// cache entry is a few hundred bytes at any n. The `qftmap --serve`
// front-end is a thin layer over this class.
//
// Deadlines are enforced twice. Cooperatively: the job's cancel token and
// remaining-budget clamp make well-behaved engines abort on their own.
// Hard: a watchdog thread fires the cancel token the moment a running job's
// deadline passes, and if the worker still hasn't retired the job after
// Options::wedge_grace_seconds (an engine wedged in a non-polling loop), the
// watchdog retires the job as kExpired itself, detaches the wedged worker
// thread, and spawns a replacement so pool capacity recovers. Stats exposes
// watchdog_fired / jobs_wedged / workers_replaced for /metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pipeline/batch.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "service/result_cache.hpp"

namespace qfto {

enum class JobStatus {
  kQueued,    // waiting for a worker
  kRunning,   // a worker is executing it
  kDone,      // result available
  kCancelled, // cancel() won (before start or mid-run)
  kExpired,   // the per-job deadline won
  kFailed,    // the engine threw (unknown engine, SATMAP TLE, bad target)
};

/// Terminal outcome visible through a JobHandle.
struct JobResult {
  JobStatus status = JobStatus::kFailed;
  std::string error;  // empty iff kDone
  /// The mapping's summary. Null unless kDone. A cacheable request's
  /// summary is the very object the ResultCache holds, so every hit on its
  /// key shares it: its requested_n and timings belong to the cold request
  /// that produced it. The fields below and timings() describe this job.
  std::shared_ptr<const MapSummary> result;
  /// True when the service answered from its ResultCache (no work done).
  bool cache_hit = false;
  /// The size this job asked for; a hit may have snapped to a cached entry
  /// produced for another size with the same native n.
  std::int32_t requested_n = 0;
  /// Seconds the job sat in the queue before a worker picked it up (or
  /// before it was cancelled/expired without running).
  double queue_seconds = 0.0;
  /// Order in which the service started running jobs (0, 1, ...); -1 when
  /// the job never ran. Exposes scheduling order to tests and benchmarks.
  std::int64_t dispatch_index = -1;

  bool ok() const { return status == JobStatus::kDone; }

  /// The work this job did: the result's timings, zeroed for a cache hit.
  MapTimings timings() const {
    return cache_hit || result == nullptr ? MapTimings{} : result->timings;
  }
};

namespace detail {
struct JobState;
struct ServiceCore;
struct WorkerSlot;
}  // namespace detail

/// Future-like handle to a submitted job. Copyable; all copies observe the
/// same job. A default-constructed handle is empty (valid() == false).
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  JobStatus status() const;

  /// Blocks until the job reaches a terminal status and returns the outcome.
  JobResult wait() const;

  /// wait() with a timeout; nullopt when the job is still queued/running
  /// after `seconds`.
  std::optional<JobResult> wait_for(double seconds) const;

  /// Non-blocking: the outcome when terminal, nullopt otherwise.
  std::optional<JobResult> try_get() const;

  /// Requests cancellation. A queued job is retired immediately (waiters
  /// wake with kCancelled, no worker time is spent); a running job is
  /// cancelled cooperatively — analytical engines abort between pipeline
  /// stages, SATMAP aborts mid-solve. Returns false when the job had
  /// already reached a terminal status.
  bool cancel() const;

 private:
  friend class MappingService;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState> state_;
};

class MappingService {
 public:
  struct Options {
    /// Worker threads (0 = hardware concurrency).
    std::int32_t num_threads = 0;
    /// Total ResultCache entries (0 disables caching).
    std::size_t cache_capacity = 1024;
    std::size_t cache_shards = 8;
    /// TTL for cache entries in seconds (0 = never age out). Device-keyed
    /// results can go stale when a device is recalibrated under the same
    /// file name; see ResultCache.
    double cache_ttl_seconds = 0.0;
    /// After the watchdog fires a running job's cancel token at its
    /// deadline, how long the worker gets to retire the job cooperatively
    /// before the watchdog declares it wedged, retires it as kExpired, and
    /// replaces the worker thread.
    double wedge_grace_seconds = 5.0;
  };

  struct Submit {
    /// Higher runs first; FIFO within a priority level.
    std::int32_t priority = 0;
    /// Wall-clock budget from submission to completion (<= 0: none). An
    /// expired job fails with a "deadline exceeded" error; SATMAP jobs
    /// receive only the remaining budget as their solver budget.
    double deadline_seconds = 0.0;
    /// Consult/populate the ResultCache (deterministic engines only).
    bool use_cache = true;
  };

  /// Watchdog / resurrection counters (monotonic over the service's life).
  struct Stats {
    /// Cancel tokens fired by the watchdog at a running job's deadline.
    std::uint64_t watchdog_fired = 0;
    /// Jobs hard-retired as kExpired after the wedge grace elapsed.
    std::uint64_t jobs_wedged = 0;
    /// Wedged worker threads detached and replaced with fresh ones.
    std::uint64_t workers_replaced = 0;
  };

  /// The pipeline must outlive the service. Workers start immediately and
  /// idle on the queue's condition variable until jobs arrive. (The
  /// zero-argument overload stands in for an `Options{}` default argument,
  /// which GCC rejects on nested aggregates with member initializers.)
  explicit MappingService(Options options,
                          const MapperPipeline& pipeline =
                              MapperPipeline::global());
  MappingService();

  /// Drains on destruction: queued jobs are retired as kCancelled, running
  /// jobs get their cancel token flipped, and all workers are joined. A
  /// worker wedged in a non-polling engine is detached once its job's
  /// deadline + grace passes, so shutdown is not held hostage — but the
  /// detached thread may still be executing engine code afterwards, so the
  /// pipeline (and any caller-owned MapOptions::target) must stay alive
  /// until such engines actually return.
  ~MappingService();

  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;

  /// Enqueues `request` and returns its handle. The request is copied;
  /// MapOptions::target, if set, must outlive the job. MapOptions::cancel
  /// is overridden by the job's own token — use JobHandle::cancel().
  JobHandle submit(BatchRequest request, Submit submit);
  JobHandle submit(BatchRequest request);

  /// Configured pool capacity. Replacement keeps this invariant: a wedged
  /// worker's detachment is paired with a fresh spawn, so num_threads() is
  /// constant over the service's life.
  std::int32_t num_threads() const;
  ResultCache::Stats cache_stats() const;
  Stats stats() const;

  /// Jobs waiting for a worker / currently on one — the /metrics queue-depth
  /// signals and the NetServer's load-shedding inputs. Point-in-time reads;
  /// by the time the caller acts the numbers may have moved. Wedged jobs
  /// leave running_count() when the watchdog retires them, even though the
  /// detached thread may still be unwinding.
  std::size_t queue_depth() const;
  std::size_t running_count() const;

  /// Direct cache access for persistence (--cache-file save/load). The
  /// cache is internally synchronized, so this is safe while workers run.
  ResultCache& cache();

 private:
  void watchdog_loop();
  void replace_worker(const std::shared_ptr<detail::WorkerSlot>& slot,
                      bool respawn);

  /// All state shared with worker threads lives behind a shared_ptr so a
  /// wedged, detached worker that eventually returns from its engine can
  /// finish bookkeeping safely even after the service was destroyed.
  std::shared_ptr<detail::ServiceCore> core_;

  mutable std::mutex workers_mutex_;
  std::vector<std::pair<std::thread, std::shared_ptr<detail::WorkerSlot>>>
      workers_;
  std::thread watchdog_;
};

}  // namespace qfto
