#include "service/mapping_service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/fault.hpp"
#include "common/types.hpp"

namespace qfto {

namespace detail {

struct JobState {
  // Immutable after submit().
  BatchRequest request;
  std::int32_t priority = 0;
  std::int64_t sequence = 0;
  bool use_cache = true;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  std::chrono::steady_clock::time_point submitted{};

  /// The cooperative token the pipeline and SATMAP poll; flipped by
  /// JobHandle::cancel(), by service shutdown, and by the watchdog at the
  /// job's deadline.
  std::atomic<bool> cancel{false};

  std::mutex mutex;
  std::condition_variable cv;
  JobStatus status = JobStatus::kQueued;
  std::string error;
  std::shared_ptr<const MapSummary> result;
  bool cache_hit = false;
  double queue_seconds = 0.0;
  std::int64_t dispatch_index = -1;
};

/// Per-worker-thread identity. The watchdog flips `wedged` when it gives up
/// on the thread; the worker checks it after every job and exits if a
/// replacement has taken over its pool seat.
struct WorkerSlot {
  std::atomic<bool> wedged{false};
  /// Set by the worker as its very last act. The destructor only join()s
  /// threads that have actually finished — blocking on a thread still wedged
  /// inside an engine would defeat the watchdog's detach path.
  std::atomic<bool> exited{false};
};

/// A job currently on a worker, plus the watchdog's enforcement state.
struct RunningJob {
  std::shared_ptr<JobState> job;
  std::shared_ptr<WorkerSlot> slot;
  bool watchdog_cancelled = false;
  std::chrono::steady_clock::time_point cancel_fired_at{};
};

/// Everything worker threads touch, behind one shared_ptr: a wedged worker
/// detached by the watchdog may finish long after ~MappingService, and its
/// post-job bookkeeping must land on live memory.
struct ServiceCore {
  ServiceCore(const MapperPipeline* p, std::size_t cache_capacity,
              std::size_t cache_shards, double cache_ttl, double grace)
      : pipeline(p),
        cache(cache_capacity, cache_shards, cache_ttl),
        wedge_grace_seconds(grace),
        queue(&ServiceCore::pops_later) {}

  /// Max-heap order: higher priority first, FIFO within a priority level.
  static bool pops_later(const std::shared_ptr<JobState>& a,
                         const std::shared_ptr<JobState>& b) {
    if (a->priority != b->priority) return a->priority < b->priority;
    return a->sequence > b->sequence;
  }

  const MapperPipeline* pipeline;
  ResultCache cache;
  const double wedge_grace_seconds;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;     // wakes workers
  std::condition_variable watchdog_cv;  // wakes the watchdog
  std::priority_queue<std::shared_ptr<JobState>,
                      std::vector<std::shared_ptr<JobState>>,
                      bool (*)(const std::shared_ptr<JobState>&,
                               const std::shared_ptr<JobState>&)>
      queue;
  bool stopping = false;
  bool watchdog_stop = false;
  std::int64_t next_sequence = 0;
  std::atomic<std::int64_t> next_dispatch{0};
  /// Jobs on a worker (guarded by queue_mutex); the destructor flips their
  /// cancel tokens so shutdown does not wait out solver budgets, and the
  /// watchdog removes entries it hard-retires.
  std::vector<RunningJob> running;

  // Stats (guarded by queue_mutex).
  std::uint64_t watchdog_fired = 0;
  std::uint64_t jobs_wedged = 0;
  std::uint64_t workers_replaced = 0;
};

namespace {

bool terminal(JobStatus s) {
  return s != JobStatus::kQueued && s != JobStatus::kRunning;
}

double seconds_since(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

JobResult snapshot_locked(const JobState& s) {
  JobResult r;
  r.status = s.status;
  r.error = s.error;
  r.result = s.result;
  r.cache_hit = s.cache_hit;
  r.requested_n = s.request.n;
  r.queue_seconds = s.queue_seconds;
  r.dispatch_index = s.dispatch_index;
  return r;
}

/// Terminal transition + waiter wake-up. First writer wins: the watchdog's
/// hard kExpired and the worker's own late completion race on wedged jobs,
/// and whichever loses must not overwrite the published outcome (waiters may
/// already have read it). Returns false when the job was already terminal.
bool finish(JobState& s, JobStatus status, std::string error,
            std::shared_ptr<const MapSummary> result, bool cache_hit = false) {
  std::lock_guard<std::mutex> lock(s.mutex);
  if (terminal(s.status)) return false;
  s.status = status;
  s.error = std::move(error);
  s.result = std::move(result);
  s.cache_hit = cache_hit;
  s.cv.notify_all();
  return true;
}

/// Retires a job that never reached a worker (handle cancel, shutdown
/// orphan, submit-after-stop). Every such path must report the same way:
/// kCancelled, a "cancelled before start..." error, and an honest
/// queue_seconds — a job that waited 2 s before shutdown orphaned it did
/// queue for 2 s, and monitoring that reads 0.0 there under-counts queue
/// pressure exactly when it matters. Caller holds s.mutex with
/// s.status == kQueued.
void retire_queued_locked(JobState& s, const char* reason) {
  s.status = JobStatus::kCancelled;
  s.error = reason;
  s.queue_seconds =
      seconds_since(s.submitted, std::chrono::steady_clock::now());
  s.cv.notify_all();
}

/// Locking wrapper: retire iff still queued; running/terminal jobs only get
/// the cancel token (running jobs cancel cooperatively, terminal no-op).
void retire_queued(JobState& s, const char* reason) {
  s.cancel.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.status == JobStatus::kQueued) retire_queued_locked(s, reason);
}

/// Runs one job to a terminal status. Static on the core so detached
/// wedged workers never touch MappingService members.
void process(ServiceCore& core, const std::shared_ptr<JobState>& job) {
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    if (terminal(job->status)) return;  // cancelled while queued
    job->queue_seconds = seconds_since(job->submitted, now);
    if (job->has_deadline && now >= job->deadline) {
      job->status = JobStatus::kExpired;
      job->error = "deadline exceeded before start (queued " +
                   std::to_string(job->queue_seconds) + " s)";
      job->cv.notify_all();
      return;
    }
    job->status = JobStatus::kRunning;
    job->dispatch_index = core.next_dispatch.fetch_add(1);
  }

  const BatchRequest& req = job->request;
  if (req.circuit != nullptr && req.n != req.circuit->num_qubits()) {
    finish(*job, JobStatus::kFailed,
           "BatchRequest: n does not match the supplied circuit", nullptr);
    return;
  }

  // Cache probe: deterministic engine, no caller-owned target, and n inside
  // run()'s accepted range — native_size on an unvalidated huge n could
  // overflow int32 before run() gets to reject it, so out-of-range sizes
  // skip the probe and fall through for the real error. General-circuit
  // requests fold their content fingerprint into the key.
  std::string key;
  if (job->use_cache && core.cache.capacity() > 0 && req.n >= 1 &&
      req.n <= 16'777'216) {
    if (const MapperEngine* engine = core.pipeline->find(req.engine)) {
      if (ResultCache::cacheable(*engine, req.options)) {
        key = ResultCache::key(req.engine, engine->native_size(req.n),
                               req.options, req.circuit.get());
        if (auto cached = core.cache.get(key)) {
          // A hit shares the immutable cached summary; the job's own size
          // and zero timings ride on JobResult.
          finish(*job, JobStatus::kDone, {}, std::move(cached),
                 /*cache_hit=*/true);
          return;
        }
      }
    }
  }

  MapOptions run_opts = req.options;
  run_opts.cancel = &job->cancel;
  if (job->has_deadline) {
    run_opts.deadline_seconds = seconds_since(
        std::chrono::steady_clock::now(), job->deadline);
    if (run_opts.deadline_seconds <= 0.0) {
      finish(*job, JobStatus::kExpired, "deadline exceeded before start",
             nullptr);
      return;
    }
  }

  // Reports "the job's deadline has passed" regardless of which enforcement
  // path noticed first — the engine's own budget clamp, the cooperative
  // token the watchdog fired, or a plain exception that raced the deadline.
  // Callers asked for a deadline outcome and must get kExpired, not an
  // incidental kCancelled/kFailed.
  const auto past_deadline = [&job] {
    return job->has_deadline &&
           std::chrono::steady_clock::now() >= job->deadline;
  };

  try {
    if (QFTO_FAULT_POINT("service.job.throw")) {
      throw std::runtime_error("injected fault: service.job.throw");
    }
    if (QFTO_FAULT_POINT("service.job.throw_nonstd")) {
      // Deliberately not derived from std::exception: exercises the worker's
      // catch (...) path end to end.
      throw 42;
    }
    // A general circuit is routed, so its gates exist until summarized; a
    // QFT job on a structured mapper never stores one.
    auto shared = std::make_shared<const MapSummary>(
        req.circuit != nullptr
            ? core.pipeline->run_circuit(req.engine, *req.circuit, run_opts)
                  .summary()
            : core.pipeline->summarize(req.engine, req.n, run_opts));
    if (!key.empty()) core.cache.put(key, shared);
    finish(*job, JobStatus::kDone, {}, std::move(shared));
  } catch (const MapCancelled& e) {
    if (e.deadline_expired() || past_deadline()) {
      finish(*job, JobStatus::kExpired,
             std::string("deadline exceeded: ") + e.what(), nullptr);
    } else {
      finish(*job, JobStatus::kCancelled, e.what(), nullptr);
    }
  } catch (const std::exception& e) {
    // A SATMAP TLE caused by the deadline clamp surfaces as a runtime_error;
    // if the job's deadline has meanwhile passed, report it as the deadline
    // outcome the caller asked for.
    if (past_deadline()) {
      finish(*job, JobStatus::kExpired,
             std::string("deadline exceeded: ") + e.what(), nullptr);
    } else {
      finish(*job, JobStatus::kFailed, e.what(), nullptr);
    }
  } catch (...) {
    if (past_deadline()) {
      finish(*job, JobStatus::kExpired, "deadline exceeded: unknown error",
             nullptr);
    } else {
      finish(*job, JobStatus::kFailed, "unknown error", nullptr);
    }
  }
}

void worker_loop_impl(const std::shared_ptr<ServiceCore>& core,
                      const std::shared_ptr<WorkerSlot>& slot) {
  for (;;) {
    std::shared_ptr<JobState> job;
    {
      std::unique_lock<std::mutex> lock(core->queue_mutex);
      core->queue_cv.wait(lock,
                          [&] { return core->stopping || !core->queue.empty(); });
      if (core->queue.empty()) return;  // stopping and drained
      job = core->queue.top();
      core->queue.pop();
      if (core->stopping) job->cancel.store(true, std::memory_order_relaxed);
      RunningJob entry;
      entry.job = job;
      entry.slot = slot;
      core->running.push_back(std::move(entry));
      if (job->has_deadline) core->watchdog_cv.notify_one();
    }
    process(*core, job);
    {
      std::lock_guard<std::mutex> lock(core->queue_mutex);
      for (auto it = core->running.begin(); it != core->running.end(); ++it) {
        if (it->job.get() == job.get() && it->slot.get() == slot.get()) {
          core->running.erase(it);
          break;
        }
      }
    }
    // If the watchdog gave up on this thread mid-job, a replacement already
    // holds its pool seat — exit instead of doubling capacity.
    if (slot->wedged.load(std::memory_order_relaxed)) return;
  }
}

void worker_loop(const std::shared_ptr<ServiceCore>& core,
                 const std::shared_ptr<WorkerSlot>& slot) {
  worker_loop_impl(core, slot);
  slot->exited.store(true, std::memory_order_release);
}

}  // namespace
}  // namespace detail

// ------------------------------------------------------------- JobHandle --

JobStatus JobHandle::status() const {
  require(valid(), "JobHandle::status: empty handle");
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->status;
}

JobResult JobHandle::wait() const {
  require(valid(), "JobHandle::wait: empty handle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return detail::terminal(state_->status); });
  return detail::snapshot_locked(*state_);
}

std::optional<JobResult> JobHandle::wait_for(double seconds) const {
  require(valid(), "JobHandle::wait_for: empty handle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  const bool done = state_->cv.wait_for(
      lock, std::chrono::duration<double>(seconds),
      [&] { return detail::terminal(state_->status); });
  if (!done) return std::nullopt;
  return detail::snapshot_locked(*state_);
}

std::optional<JobResult> JobHandle::try_get() const {
  require(valid(), "JobHandle::try_get: empty handle");
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!detail::terminal(state_->status)) return std::nullopt;
  return detail::snapshot_locked(*state_);
}

bool JobHandle::cancel() const {
  require(valid(), "JobHandle::cancel: empty handle");
  detail::JobState& s = *state_;
  s.cancel.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(s.mutex);
  if (detail::terminal(s.status)) return false;
  if (s.status == JobStatus::kQueued) {
    // Retire immediately: no worker time is spent and waiters wake now. The
    // worker that eventually pops this entry sees a terminal status and
    // skips it.
    detail::retire_queued_locked(s, "cancelled before start");
    return true;
  }
  // kRunning: the token is set; the pipeline aborts between stages, SATMAP
  // mid-solve.
  return true;
}

// -------------------------------------------------------- MappingService --

MappingService::MappingService(Options options, const MapperPipeline& pipeline) {
  double grace = options.wedge_grace_seconds;
  if (!(grace > 0.0) || !std::isfinite(grace)) grace = 5.0;
  core_ = std::make_shared<detail::ServiceCore>(
      &pipeline, options.cache_capacity, options.cache_shards,
      options.cache_ttl_seconds, grace);
  std::int32_t threads = options.num_threads;
  if (threads <= 0) {
    threads = static_cast<std::int32_t>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  workers_.reserve(threads);
  for (std::int32_t t = 0; t < threads; ++t) {
    auto slot = std::make_shared<detail::WorkerSlot>();
    auto core = core_;
    workers_.emplace_back(
        std::thread([core, slot] { detail::worker_loop(core, slot); }), slot);
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

MappingService::MappingService() : MappingService(Options{}) {}

MappingService::~MappingService() {
  std::vector<std::shared_ptr<detail::JobState>> orphans;
  {
    std::lock_guard<std::mutex> lock(core_->queue_mutex);
    core_->stopping = true;
    while (!core_->queue.empty()) {
      orphans.push_back(core_->queue.top());
      core_->queue.pop();
    }
    // In-flight jobs cancel cooperatively — shutdown must not wait out a
    // SATMAP solver budget; the worker reports them kCancelled itself.
    for (auto& entry : core_->running) {
      entry.job->cancel.store(true, std::memory_order_relaxed);
    }
  }
  core_->queue_cv.notify_all();
  core_->watchdog_cv.notify_all();
  for (auto& job : orphans) {
    detail::retire_queued(*job, "cancelled before start: service shutting down");
  }
  // Join workers with the watchdog still running: a worker wedged past its
  // job's deadline + grace is detached (and removed from workers_) by the
  // watchdog, so shutdown is bounded by the deadline contract rather than by
  // a non-polling engine. Only threads that have signalled exit are joined —
  // grabbing a still-wedged thread here would block exactly where the
  // watchdog's detach is supposed to save us; for those we sleep-poll until
  // the watchdog removes the entry.
  for (;;) {
    std::thread victim;
    bool any_left = false;
    {
      std::lock_guard<std::mutex> lock(workers_mutex_);
      for (auto it = workers_.begin(); it != workers_.end(); ++it) {
        if (!it->first.joinable()) continue;
        any_left = true;
        if (it->second->exited.load(std::memory_order_acquire)) {
          victim = std::move(it->first);
          workers_.erase(it);
          break;
        }
      }
    }
    if (victim.joinable()) {
      victim.join();
      continue;
    }
    if (!any_left) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(core_->queue_mutex);
    core_->watchdog_stop = true;
  }
  core_->watchdog_cv.notify_all();
  watchdog_.join();
}

JobHandle MappingService::submit(BatchRequest request) {
  return submit(std::move(request), Submit{});
}

JobHandle MappingService::submit(BatchRequest request, Submit submit) {
  // General-circuit convenience: a request carrying a circuit may leave n
  // unset; the circuit is the size authority.
  if (request.circuit != nullptr && request.n <= 0) {
    request.n = request.circuit->num_qubits();
  }
  auto state = std::make_shared<detail::JobState>();
  state->request = std::move(request);
  state->priority = submit.priority;
  state->use_cache = submit.use_cache;
  state->submitted = std::chrono::steady_clock::now();
  // NaN and +inf mean "no deadline"; finite budgets are capped so the
  // duration_cast below cannot overflow the clock's integer representation
  // (1e9 s ≈ 31 years is already "never" for a mapping job).
  if (submit.deadline_seconds > 0.0 && std::isfinite(submit.deadline_seconds)) {
    state->has_deadline = true;
    const double capped = std::min(submit.deadline_seconds, 1.0e9);
    state->deadline =
        state->submitted + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(capped));
  }
  if (QFTO_FAULT_POINT("service.queue.reject")) {
    detail::retire_queued(
        *state, "cancelled before start: injected queue admission failure");
    return JobHandle(std::move(state));
  }
  {
    std::lock_guard<std::mutex> lock(core_->queue_mutex);
    if (core_->stopping) {
      detail::retire_queued(*state,
                            "cancelled before start: service shutting down");
      return JobHandle(std::move(state));
    }
    state->sequence = core_->next_sequence++;
    core_->queue.push(state);
  }
  core_->queue_cv.notify_one();
  return JobHandle(std::move(state));
}

void MappingService::watchdog_loop() {
  auto core = core_;
  const auto grace = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(core->wedge_grace_seconds));
  std::unique_lock<std::mutex> lock(core->queue_mutex);
  while (!core->watchdog_stop) {
    const auto now = std::chrono::steady_clock::now();
    auto next = std::chrono::steady_clock::time_point::max();
    bool have_next = false;
    // Pass 1 (under the lock): fire cancel tokens at expired deadlines,
    // collect jobs whose grace has also elapsed, compute the next wake-up.
    std::vector<std::pair<std::shared_ptr<detail::JobState>,
                          std::shared_ptr<detail::WorkerSlot>>>
        wedged;
    for (auto it = core->running.begin(); it != core->running.end();) {
      detail::RunningJob& r = *it;
      if (!r.job->has_deadline) {
        ++it;
        continue;
      }
      if (!r.watchdog_cancelled) {
        if (now >= r.job->deadline) {
          r.job->cancel.store(true, std::memory_order_relaxed);
          r.watchdog_cancelled = true;
          r.cancel_fired_at = now;
          ++core->watchdog_fired;
        } else {
          next = std::min(next, r.job->deadline);
          have_next = true;
          ++it;
          continue;
        }
      }
      const auto retire_at = r.cancel_fired_at + grace;
      if (now >= retire_at) {
        r.slot->wedged.store(true, std::memory_order_relaxed);
        ++core->jobs_wedged;
        wedged.emplace_back(r.job, r.slot);
        it = core->running.erase(it);
      } else {
        next = std::min(next, retire_at);
        have_next = true;
        ++it;
      }
    }
    if (!wedged.empty()) {
      // Pass 2 (lock dropped — finish() takes the job mutex and
      // replace_worker() takes workers_mutex_): hard-retire the jobs and
      // restore pool capacity. During shutdown the detach still happens (so
      // the destructor's join loop is not held hostage) but no replacement
      // is spawned.
      const bool respawn = !core->stopping;
      lock.unlock();
      for (auto& w : wedged) {
        // Replacement first: by the time a waiter wakes from finish(), pool
        // capacity is already restored and workers_replaced counted.
        replace_worker(w.second, respawn);
        detail::finish(
            *w.first, JobStatus::kExpired,
            "deadline exceeded: watchdog retired wedged job (engine ignored "
            "cancel for the full grace period)",
            nullptr);
      }
      lock.lock();
      continue;  // re-scan: the world moved while unlocked
    }
    if (core->watchdog_stop) break;
    if (have_next) {
      core->watchdog_cv.wait_until(lock, next);
    } else {
      core->watchdog_cv.wait(lock);
    }
  }
}

void MappingService::replace_worker(
    const std::shared_ptr<detail::WorkerSlot>& slot, bool respawn) {
  std::lock_guard<std::mutex> lock(workers_mutex_);
  for (auto& w : workers_) {
    if (w.second.get() != slot.get()) continue;
    w.first.detach();
    if (respawn) {
      auto fresh = std::make_shared<detail::WorkerSlot>();
      auto core = core_;
      w.first = std::thread([core, fresh] { detail::worker_loop(core, fresh); });
      w.second = fresh;
      std::lock_guard<std::mutex> qlock(core_->queue_mutex);
      ++core_->workers_replaced;
    } else {
      std::swap(w, workers_.back());
      workers_.pop_back();
    }
    return;
  }
}

std::int32_t MappingService::num_threads() const {
  std::lock_guard<std::mutex> lock(workers_mutex_);
  return static_cast<std::int32_t>(workers_.size());
}

ResultCache::Stats MappingService::cache_stats() const {
  return core_->cache.stats();
}

MappingService::Stats MappingService::stats() const {
  std::lock_guard<std::mutex> lock(core_->queue_mutex);
  Stats s;
  s.watchdog_fired = core_->watchdog_fired;
  s.jobs_wedged = core_->jobs_wedged;
  s.workers_replaced = core_->workers_replaced;
  return s;
}

std::size_t MappingService::queue_depth() const {
  std::lock_guard<std::mutex> lock(core_->queue_mutex);
  return core_->queue.size();
}

std::size_t MappingService::running_count() const {
  std::lock_guard<std::mutex> lock(core_->queue_mutex);
  return core_->running.size();
}

ResultCache& MappingService::cache() { return core_->cache; }

}  // namespace qfto
