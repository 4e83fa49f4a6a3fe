// MappingService: queue/worker lifecycle, priority scheduling, pre-start and
// mid-run (incl. mid-SATMAP) cancellation, per-job deadlines, ResultCache
// bit-identity and fingerprint invalidation, and the --serve JSON protocol.
// The concurrency here is what the CI TSan leg locks in.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/device_model.hpp"
#include "arch/line.hpp"
#include "common/timer.hpp"
#include "mapper/lnn_mapper.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "service/mapping_service.hpp"
#include "service/result_cache.hpp"
#include "service/serve.hpp"

namespace qfto {
namespace {

using namespace std::chrono_literals;

// A controllable engine: maps QFT(n) on a line after napping in 1 ms slices,
// honouring the cooperative cancel token the way a real long engine does.
class SleeperEngine final : public MapperEngine {
 public:
  explicit SleeperEngine(double nap_seconds) : nap_seconds_(nap_seconds) {}
  std::string name() const override { return "sleeper"; }
  std::string description() const override { return "naps, then maps lnn"; }
  bool deterministic() const override { return false; }  // keep out of cache
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

MappingService::Options service_options(std::int32_t threads,
                                        std::size_t cache_capacity = 1024) {
  MappingService::Options options;
  options.num_threads = threads;
  options.cache_capacity = cache_capacity;
  return options;
}

// --------------------------------------------------------------- plumbing --

TEST(Service, SubmitWaitRoundTrip) {
  MappingService service{service_options(2)};
  const JobResult out = service.submit({"lnn", 12, MapOptions{}}).wait();
  ASSERT_EQ(out.status, JobStatus::kDone) << out.error;
  ASSERT_NE(out.result, nullptr);
  EXPECT_TRUE(out.result->check.ok) << out.result->check.error;
  EXPECT_EQ(out.result->n, 12);
  EXPECT_GE(out.queue_seconds, 0.0);
  EXPECT_GE(out.dispatch_index, 0);
  EXPECT_TRUE(out.ok());
}

TEST(Service, EngineFailuresAreCapturedPerJob) {
  MappingService service{service_options(2)};
  const JobResult bad = service.submit({"nosuch", 8, MapOptions{}}).wait();
  EXPECT_EQ(bad.status, JobStatus::kFailed);
  EXPECT_NE(bad.error.find("unknown engine"), std::string::npos);
  EXPECT_EQ(bad.result, nullptr);

  MapOptions tle;
  tle.satmap.time_budget_seconds = 1e-6;
  const JobResult timeout = service.submit({"satmap", 8, tle}).wait();
  EXPECT_EQ(timeout.status, JobStatus::kFailed);
  EXPECT_NE(timeout.error.find("satmap"), std::string::npos);
}

TEST(Service, TryGetIsNonBlockingAndWaitForTimesOut) {
  const MapperPipeline pipeline = pipeline_with_sleeper(0.3);
  MappingService service{service_options(1), pipeline};
  JobHandle handle = service.submit({"sleeper", 4, MapOptions{}});
  // The nap dwarfs the submit latency, so the job cannot be done yet.
  EXPECT_FALSE(handle.try_get().has_value());
  EXPECT_FALSE(handle.wait_for(0.01).has_value());
  const JobResult out = handle.wait();
  EXPECT_EQ(out.status, JobStatus::kDone) << out.error;
  EXPECT_FALSE(handle.cancel()) << "terminal jobs are not cancellable";
}

// ----------------------------------------------------------- cancellation --

TEST(Service, QueuedJobCancelsImmediatelyWithoutWorkerTime) {
  const MapperPipeline pipeline = pipeline_with_sleeper(1.0);
  MappingService service{service_options(1), pipeline};
  JobHandle blocker = service.submit({"sleeper", 4, MapOptions{}});
  JobHandle queued = service.submit({"lnn", 8, MapOptions{}});

  ASSERT_TRUE(queued.cancel());
  // cancel() retires a queued job synchronously — no waiting on the blocker.
  const std::optional<JobResult> out = queued.try_get();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, JobStatus::kCancelled);
  EXPECT_NE(out->error.find("cancelled before start"), std::string::npos);
  EXPECT_EQ(out->dispatch_index, -1) << "no worker may have run it";

  ASSERT_TRUE(blocker.cancel());
  EXPECT_EQ(blocker.wait().status, JobStatus::kCancelled);
}

TEST(Service, MidSatmapCancellationReturnsWithinBudget) {
  // QFT-10 keeps SATMAP busy for seconds even on the incremental driver
  // (iterative deepening, then swap minimization burns toward the budget).
  // The token is polled inside the solver search and between probes, so
  // cancelling the in-flight job must return in milliseconds — far inside
  // the 60 s budget.
  MappingService service{service_options(1)};
  MapOptions opts;
  opts.satmap.time_budget_seconds = 60.0;
  JobHandle job = service.submit({"satmap", 10, opts});

  WallTimer spin;
  while (job.status() == JobStatus::kQueued && spin.seconds() < 10.0) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(job.status(), JobStatus::kRunning);
  std::this_thread::sleep_for(20ms);  // let it get into the solver

  WallTimer timer;
  ASSERT_TRUE(job.cancel());
  const JobResult out = job.wait();
  EXPECT_LT(timer.seconds(), 30.0) << "cancel must beat the 60 s budget";
  EXPECT_EQ(out.status, JobStatus::kCancelled);
  EXPECT_NE(out.error.find("cancel"), std::string::npos) << out.error;
}

// --------------------------------------------------------------- deadlines --

TEST(Service, DeadlineExpiryInQueueReportsDeadlineExceeded) {
  const MapperPipeline pipeline = pipeline_with_sleeper(0.3);
  MappingService service{service_options(1), pipeline};
  JobHandle blocker = service.submit({"sleeper", 4, MapOptions{}});

  MappingService::Submit submit;
  submit.deadline_seconds = 0.02;  // expires while the blocker runs
  const JobResult out =
      service.submit({"lnn", 8, MapOptions{}}, submit).wait();
  EXPECT_EQ(out.status, JobStatus::kExpired);
  EXPECT_NE(out.error.find("deadline exceeded"), std::string::npos)
      << out.error;
  EXPECT_EQ(blocker.wait().status, JobStatus::kDone);
}

TEST(Service, DeadlineExpiryMidRunReportsDeadlineExceeded) {
  const MapperPipeline pipeline = pipeline_with_sleeper(0.25);
  MappingService service{service_options(1), pipeline};
  MappingService::Submit submit;
  submit.deadline_seconds = 0.05;  // expires inside the sleeper's map stage
  const JobResult out =
      service.submit({"sleeper", 4, MapOptions{}}, submit).wait();
  EXPECT_EQ(out.status, JobStatus::kExpired);
  EXPECT_NE(out.error.find("deadline exceeded"), std::string::npos)
      << out.error;
}

TEST(Service, SatmapDeadlineClampsTheSolverBudget) {
  // The job-level deadline must reach SatmapOptions: under a 0.15 s
  // deadline a 60 s solver budget either TLEs inside the clamp or gets cut
  // off at the next pipeline stage — both surface as kExpired within
  // seconds instead of running for a minute.
  MappingService service{service_options(1)};
  MapOptions opts;
  opts.satmap.time_budget_seconds = 60.0;
  MappingService::Submit submit;
  submit.deadline_seconds = 0.15;
  WallTimer timer;
  const JobResult out = service.submit({"satmap", 10, opts}, submit).wait();
  EXPECT_EQ(out.status, JobStatus::kExpired);
  EXPECT_NE(out.error.find("deadline"), std::string::npos) << out.error;
  EXPECT_LT(timer.seconds(), 30.0);
}

// ---------------------------------------------------------------- priority --

TEST(Service, PriorityOrdersTheQueueFifoWithinLevel) {
  const MapperPipeline pipeline = pipeline_with_sleeper(0.4);
  MappingService service{service_options(1), pipeline};
  // The blocker must occupy the only worker before anything else is
  // submitted, so the remaining jobs demonstrably reorder in the queue.
  JobHandle blocker = service.submit({"sleeper", 4, MapOptions{}});
  WallTimer spin;
  while (blocker.status() == JobStatus::kQueued && spin.seconds() < 10.0) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(blocker.status(), JobStatus::kRunning);

  MappingService::Submit low, mid, top;
  low.priority = 0;
  mid.priority = 5;
  top.priority = 10;
  JobHandle a = service.submit({"lnn", 6, MapOptions{}}, low);
  JobHandle b = service.submit({"lnn", 7, MapOptions{}}, mid);
  JobHandle c = service.submit({"lnn", 9, MapOptions{}}, mid);
  JobHandle d = service.submit({"lnn", 10, MapOptions{}}, top);

  const JobResult rb = b.wait(), rc = c.wait(), rd = d.wait(),
                  ra = a.wait(), rblock = blocker.wait();
  ASSERT_TRUE(rblock.ok() && ra.ok() && rb.ok() && rc.ok() && rd.ok());
  EXPECT_LT(rblock.dispatch_index, rd.dispatch_index);
  EXPECT_LT(rd.dispatch_index, rb.dispatch_index) << "priority 10 before 5";
  EXPECT_LT(rb.dispatch_index, rc.dispatch_index) << "FIFO within level";
  EXPECT_LT(rc.dispatch_index, ra.dispatch_index) << "priority 5 before 0";
}

// ------------------------------------------------------------------- cache --

TEST(Service, CacheHitZeroesSabreStats) {
  MappingService service{service_options(1)};
  const JobResult cold = service.submit({"sabre", 9, MapOptions{}}).wait();
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_GT(cold.result->timings.sabre.passes, 0);

  const JobResult warm = service.submit({"sabre", 9, MapOptions{}}).wait();
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.timings().sabre.passes, 0);
  EXPECT_EQ(warm.timings().sabre.blocked_steps, 0);
}

TEST(Service, CacheHitIsBitIdenticalWithZeroMapTime) {
  MappingService service{service_options(2)};
  const JobResult cold = service.submit({"lattice", 10, MapOptions{}}).wait();
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.cache_hit);

  const JobResult warm = service.submit({"lattice", 10, MapOptions{}}).wait();
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.timings().map_seconds, 0.0);
  EXPECT_EQ(warm.timings().check_seconds, 0.0);

  // Bit-identical to a fresh pipeline.run on every summary field.
  const MapResult fresh = MapperPipeline::global().run("lattice", 10);
  const MapSummary& hit = *warm.result;
  EXPECT_EQ(hit.engine, fresh.engine);
  EXPECT_EQ(warm.requested_n, fresh.requested_n);
  EXPECT_EQ(hit.n, fresh.n);
  EXPECT_EQ(hit.physical, fresh.graph.num_qubits());
  EXPECT_EQ(hit.log10_fidelity, fresh.log10_fidelity);
  EXPECT_EQ(hit.check.ok, fresh.check.ok);
  EXPECT_EQ(hit.check.depth, fresh.check.depth);
  EXPECT_EQ(hit.check.counts.h, fresh.check.counts.h);
  EXPECT_EQ(hit.check.counts.cphase, fresh.check.counts.cphase);
  EXPECT_EQ(hit.check.counts.swap, fresh.check.counts.swap);
  EXPECT_EQ(hit.check.counts.cnot, fresh.check.counts.cnot);
}

TEST(Service, CacheKeyUsesNativeSizeButEchoesRequestedSize) {
  MappingService service{service_options(2)};
  // n=10 and n=16 both snap to the native 16 on the lattice engine: the
  // second request must be a hit, yet echo its own requested size.
  const JobResult first = service.submit({"lattice", 10, MapOptions{}}).wait();
  ASSERT_TRUE(first.ok()) << first.error;
  const JobResult second =
      service.submit({"lattice", 16, MapOptions{}}).wait();
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.requested_n, 16);
  EXPECT_EQ(second.result->n, 16);
}

TEST(Service, CacheHoldsTheColdSummaryAndEveryHitSharesIt) {
  MappingService service{service_options(1)};
  const JobResult cold = service.submit({"lattice", 10, MapOptions{}}).wait();
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.requested_n, 10);
  EXPECT_EQ(cold.timings().map_seconds, cold.result->timings.map_seconds);

  // n=10 and n=16 both snap to the native 16: an exact and a snapped hit.
  const JobResult exact = service.submit({"lattice", 10, MapOptions{}}).wait();
  const JobResult snapped =
      service.submit({"lattice", 16, MapOptions{}}).wait();
  ASSERT_TRUE(exact.ok() && snapped.ok()) << exact.error << snapped.error;
  EXPECT_TRUE(exact.cache_hit);
  EXPECT_TRUE(snapped.cache_hit);
  // The cache holds the cold job's summary object; every hit shares it.
  EXPECT_EQ(exact.result.get(), cold.result.get());
  EXPECT_EQ(snapped.result.get(), cold.result.get());
  EXPECT_EQ(snapped.requested_n, 16);
  EXPECT_EQ(exact.requested_n, 10);
  EXPECT_EQ(cold.result->requested_n, 10) << "the shared result is the cold one";
  EXPECT_EQ(cold.result->physical, 16);
  EXPECT_EQ(service.cache_stats().entries, 1u);
}

TEST(Service, CacheInvalidatedByAblationKnobs) {
  MappingService service{service_options(2)};
  MapOptions relaxed;
  MapOptions strict;
  strict.strict_ie = true;

  const JobResult r1 = service.submit({"sycamore", 36, relaxed}).wait();
  ASSERT_TRUE(r1.ok()) << r1.error;
  // Same engine and size, different ablation knob: must miss, and must map
  // to the strict variant (observably deeper, per the §3.3 ablation).
  const JobResult s1 = service.submit({"sycamore", 36, strict}).wait();
  ASSERT_TRUE(s1.ok()) << s1.error;
  EXPECT_FALSE(s1.cache_hit);
  EXPECT_GT(s1.result->check.depth, r1.result->check.depth);

  // Each variant now hits its own entry.
  const JobResult r2 = service.submit({"sycamore", 36, relaxed}).wait();
  const JobResult s2 = service.submit({"sycamore", 36, strict}).wait();
  ASSERT_TRUE(r2.ok() && s2.ok());
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_TRUE(s2.cache_hit);
  EXPECT_EQ(r2.result->check.depth, r1.result->check.depth);
  EXPECT_EQ(s2.result->check.depth, s1.result->check.depth);

  const ResultCache::Stats stats = service.cache_stats();
  EXPECT_GE(stats.entries, 2u) << "both variants live side by side";
  EXPECT_GE(stats.hits, 2u);
}

TEST(Service, NonDeterministicAndTargetedRequestsAreNeverCached) {
  MappingService service{service_options(2)};
  MapOptions satmap_opts;
  satmap_opts.satmap.time_budget_seconds = 60.0;
  const JobResult a = service.submit({"satmap", 4, satmap_opts}).wait();
  const JobResult b = service.submit({"satmap", 4, satmap_opts}).wait();
  ASSERT_TRUE(a.ok() && b.ok()) << a.error << b.error;
  EXPECT_FALSE(a.cache_hit);
  EXPECT_FALSE(b.cache_hit) << "satmap is wall-clock dependent";

  const CouplingGraph target = make_line(9);
  MapOptions targeted;
  targeted.sabre.trials = 1;
  targeted.target = &target;
  const JobResult t1 = service.submit({"sabre", 9, targeted}).wait();
  const JobResult t2 = service.submit({"sabre", 9, targeted}).wait();
  ASSERT_TRUE(t1.ok() && t2.ok()) << t1.error << t2.error;
  EXPECT_FALSE(t2.cache_hit) << "caller-owned graphs are uncacheable";
}

TEST(Service, CacheCanBeDisabledPerJobAndPerService) {
  MappingService cacheless{service_options(2, /*cache_capacity=*/0)};
  ASSERT_TRUE(cacheless.submit({"lnn", 8, MapOptions{}}).wait().ok());
  const JobResult again = cacheless.submit({"lnn", 8, MapOptions{}}).wait();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.cache_hit);

  MappingService service{service_options(2)};
  ASSERT_TRUE(service.submit({"lnn", 8, MapOptions{}}).wait().ok());
  MappingService::Submit no_cache;
  no_cache.use_cache = false;
  const JobResult bypass =
      service.submit({"lnn", 8, MapOptions{}}, no_cache).wait();
  ASSERT_TRUE(bypass.ok());
  EXPECT_FALSE(bypass.cache_hit);
}

TEST(ResultCache, LruEvictsTheColdestEntryPerShard) {
  ResultCache cache(/*capacity=*/2, /*shards=*/1);
  const auto result = std::make_shared<const MapResult>();
  cache.put("a", result);
  cache.put("b", result);
  EXPECT_NE(cache.get("a"), nullptr);  // promotes "a" to MRU
  cache.put("c", result);              // evicts "b"
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCache, GlobalCapacityBoundHoldsWhenShardsDoNotDivide) {
  // 10 entries over 8 shards used to ceil-round to 2 per shard — a de facto
  // bound of 16. The quota split must keep the global total exact.
  ResultCache cache(/*capacity=*/10, /*shards=*/8);
  const auto result = std::make_shared<const MapResult>();
  for (int i = 0; i < 200; ++i) cache.put("key-" + std::to_string(i), result);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.capacity, 10u);
  EXPECT_EQ(stats.entries, 10u) << "never over, and full under pressure";
  EXPECT_EQ(stats.entries + stats.evictions, stats.insertions);
}

TEST(ResultCache, SaveLoadRoundTripServesBitIdenticalHits) {
  MappingService first{service_options(2)};
  const JobResult lat = first.submit({"lattice", 9, MapOptions{}}).wait();
  const JobResult line = first.submit({"lnn", 6, MapOptions{}}).wait();
  ASSERT_TRUE(lat.ok() && line.ok()) << lat.error << line.error;

  std::stringstream blob;
  ASSERT_TRUE(first.cache().save(blob));

  MappingService second{service_options(2)};
  std::string error;
  ASSERT_TRUE(second.cache().load(blob, &error)) << error;

  const JobResult warm = second.submit({"lattice", 9, MapOptions{}}).wait();
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_TRUE(warm.cache_hit) << "restored entries must hit";
  // Every summary field survives; the fidelity bit for bit (%.17g).
  EXPECT_EQ(warm.result->engine, lat.result->engine);
  EXPECT_EQ(warm.result->n, lat.result->n);
  EXPECT_EQ(warm.result->physical, lat.result->physical);
  EXPECT_EQ(warm.result->check.ok, lat.result->check.ok);
  EXPECT_EQ(warm.result->check.error, lat.result->check.error);
  EXPECT_EQ(warm.result->check.depth, lat.result->check.depth);
  EXPECT_EQ(warm.result->check.counts.h, lat.result->check.counts.h);
  EXPECT_EQ(warm.result->check.counts.cphase, lat.result->check.counts.cphase);
  EXPECT_EQ(warm.result->check.counts.cnot, lat.result->check.counts.cnot);
  EXPECT_EQ(warm.result->check.counts.swap, lat.result->check.counts.swap);
  EXPECT_EQ(warm.result->log10_fidelity, lat.result->log10_fidelity);
  EXPECT_EQ(warm.timings().map_seconds, 0.0);
  // A restored hit answers with the cold response up to the hit flag and
  // the timing fields that follow it.
  const auto head = [](const JobResult& r) {
    const std::string line = serve_response_json("1", r);
    return line.substr(0, line.find(",\"cache_hit\""));
  };
  EXPECT_EQ(head(warm), head(lat));

  const JobResult warm2 = second.submit({"lnn", 6, MapOptions{}}).wait();
  ASSERT_TRUE(warm2.ok()) << warm2.error;
  EXPECT_TRUE(warm2.cache_hit);

  // Garbage fails with a message, never an exception.
  std::istringstream garbage("not a cache file\n");
  EXPECT_FALSE(second.cache().load(garbage, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ResultCache, Version4FileFailsTheMagicCheckAndTheServiceStartsCold) {
  // A version-4 record carried the graph's edge list and a QASM blob; its
  // keys match today's, so only the magic line keeps it out.
  MappingService service{service_options(1)};
  const std::string key = ResultCache::key("lnn", 2, MapOptions{});
  const std::string qasm =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n";
  std::stringstream v4;
  v4 << "qftmap-cache 4\nentry\nkey " << key.size() << '\n' << key
     << "\nengine 3\nlnn\nn 2\ngraph 2 1 4\nline\ne 0 1 0\n"
     << "check 1 3 2 0 0 1 0 0 0\n\nfid -0.5\nqasm " << qasm.size() << '\n'
     << qasm << "\nend\n";
  std::string error;
  EXPECT_FALSE(service.cache().load(v4, &error));
  EXPECT_EQ(error,
            "cache load: file is qftmap-cache version 4, this build reads "
            "version 5");
  EXPECT_EQ(service.cache_stats().entries, 0u);
  const JobResult cold = service.submit({"lnn", 2, MapOptions{}}).wait();
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
}

TEST(ResultCache, ForeignFirstLineFailsTheMagicCheck) {
  ResultCache cache(16);
  for (const char* first : {"", "not a cache file", "qftmap-cache",
                            "qftmap-cache ", "qftmap-cache 5x",
                            "qftmap-cache v4", "qftmap-cachet 5"}) {
    std::istringstream in(std::string(first) + "\nentry\n");
    std::string error;
    EXPECT_FALSE(cache.load(in, &error)) << first;
    EXPECT_EQ(error, "cache load: bad magic (not a qftmap cache file?)")
        << first;
  }
  std::istringstream empty("");
  std::string error;
  EXPECT_FALSE(cache.load(empty, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(ResultCache, KeyCoversEveryResultShapingKnob) {
  const MapOptions base;
  const std::string k = ResultCache::key("lattice", 16, base);
  {
    MapOptions o;
    o.strict_ie = true;
    EXPECT_NE(ResultCache::key("lattice", 16, o), k);
  }
  {
    MapOptions o;
    o.lattice_phase_offset = 0;
    EXPECT_NE(ResultCache::key("lattice", 16, o), k);
  }
  {
    MapOptions o;
    o.transversal_unit_swap = false;
    EXPECT_NE(ResultCache::key("lattice", 16, o), k);
  }
  {
    MapOptions o;
    o.sabre.seed = 7;
    EXPECT_NE(ResultCache::key("lattice", 16, o), k);
  }
  {
    MapOptions o;
    o.verify = false;
    EXPECT_NE(ResultCache::key("lattice", 16, o), k);
  }
  // Every SATMAP field that shapes output must fragment the key — a stale
  // hit here would silently return wrong-backend results.
  {
    MapOptions o;
    o.satmap.time_budget_seconds = 99.0;
    EXPECT_NE(ResultCache::key("lattice", 16, o), k);
  }
  {
    MapOptions o;
    o.satmap.max_layers = 7;
    EXPECT_NE(ResultCache::key("lattice", 16, o), k);
  }
  {
    MapOptions o;
    o.satmap.minimize_swaps = false;
    EXPECT_NE(ResultCache::key("lattice", 16, o), k);
  }
  {
    MapOptions o;
    o.satmap.solver = "dpll";
    EXPECT_NE(ResultCache::key("lattice", 16, o), k);
  }
  // SABRE knobs, same audit.
  {
    MapOptions o;
    o.sabre.trials = 9;
    EXPECT_NE(ResultCache::key("lattice", 16, o), k);
  }
  {
    MapOptions o;
    o.sabre.extended_weight += 0.25;
    EXPECT_NE(ResultCache::key("lattice", 16, o), k);
  }
  // Serving knobs must NOT fragment the key: a deadlined re-request of the
  // same mapping is still a hit.
  {
    MapOptions o;
    o.deadline_seconds = 2.5;
    std::atomic<bool> token{false};
    o.cancel = &token;
    EXPECT_EQ(ResultCache::key("lattice", 16, o), k);
  }
  {
    MapOptions o;
    o.satmap.dump_cnf_path = "/tmp/debug.cnf";
    sat::SolverStats sink;
    o.satmap.stats_out = &sink;
    EXPECT_EQ(ResultCache::key("lattice", 16, o), k)
        << "debug hooks never shape the result";
  }
  EXPECT_NE(ResultCache::key("lattice", 25, base), k);
  EXPECT_NE(ResultCache::key("grid", 16, base), k);
}

// ---------------------------------------------------------- serve protocol --

TEST(Serve, ParsesTheDocumentedRequestShape) {
  const ServeRequest req = parse_serve_request(
      R"({"id": 7, "engine": "sycamore", "m": 6, "priority": 3,)"
      R"( "deadline": 1.5, "strict_ie": true, "cache": false})");
  ASSERT_TRUE(req.ok) << req.error;
  EXPECT_EQ(req.id, "7");
  EXPECT_EQ(req.request.engine, "sycamore");
  EXPECT_EQ(req.request.n, 36);
  EXPECT_TRUE(req.request.options.strict_ie);
  EXPECT_EQ(req.submit.priority, 3);
  EXPECT_DOUBLE_EQ(req.submit.deadline_seconds, 1.5);
  EXPECT_FALSE(req.submit.use_cache);
}

TEST(Serve, ParsesTheSatBackendKnobs) {
  const ServeRequest req = parse_serve_request(
      R"({"id": 9, "engine": "satmap", "n": 4, "budget": 30.0,)"
      R"( "solver": "dpll"})");
  ASSERT_TRUE(req.ok) << req.error;
  EXPECT_EQ(req.request.options.satmap.solver, "dpll");
  EXPECT_DOUBLE_EQ(req.request.options.satmap.time_budget_seconds, 30.0);

  // Defaults when absent.
  const ServeRequest plain =
      parse_serve_request(R"({"engine": "satmap", "n": 4})");
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_EQ(plain.request.options.satmap.solver, "cdcl");

  EXPECT_FALSE(
      parse_serve_request(R"({"engine": "satmap", "n": 4, "solver": 3})").ok);
  EXPECT_FALSE(
      parse_serve_request(R"({"engine": "satmap", "n": 4, "solver": ""})").ok);
}

TEST(Serve, RejectsTheRetiredSatSearchFields) {
  // Fields the protocol does not have must fail like any other typo instead
  // of mapping with defaults, including names older clients may still send.
  for (const char* field : {"sat_incremental", "portfolio", "lanes"}) {
    for (const char* value : {"true", "2"}) {
      const ServeRequest req = parse_serve_request(
          std::string(R"({"engine": "satmap", "n": 4, ")") + field +
          "\": " + value + "}");
      EXPECT_FALSE(req.ok) << field;
      EXPECT_EQ(req.error, std::string("unknown field \"") + field + "\"");
    }
  }
}

TEST(Serve, SatmapResponsesCarrySolverStats) {
  // An unknown backend fails in-band; a solved run reports its search
  // effort; analytical responses keep their pre-PR shape.
  std::istringstream in(
      "{\"id\": 1, \"engine\": \"satmap\", \"n\": 3, \"budget\": 60}\n"
      "{\"id\": 2, \"engine\": \"satmap\", \"n\": 3, \"solver\": \"bogus\"}\n"
      "{\"id\": 3, \"engine\": \"lnn\", \"n\": 8}\n");
  std::ostringstream out;
  MappingService service{service_options(1)};
  EXPECT_EQ(run_serve_loop(in, out, service), 0);

  std::vector<std::string> lines;
  std::istringstream reread(out.str());
  for (std::string line; std::getline(reread, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u) << out.str();
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"sat_conflicts\":"), std::string::npos);
  EXPECT_NE(lines[0].find("\"sat_solve_calls\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("unknown solver backend"), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(lines[2].find("\"sat_conflicts\""), std::string::npos)
      << "analytical engines must not grow SAT fields";
}

TEST(Serve, RejectsMalformedLinesWithTheIdEchoed) {
  EXPECT_FALSE(parse_serve_request("").ok);
  EXPECT_FALSE(parse_serve_request("not json").ok);
  EXPECT_FALSE(parse_serve_request(R"({"engine": "lnn"})").ok)
      << "n is required";
  EXPECT_FALSE(parse_serve_request(R"({"n": 8})").ok) << "engine is required";
  EXPECT_FALSE(parse_serve_request(R"({"engine": "lnn", "n": 0})").ok);
  EXPECT_FALSE(parse_serve_request(R"({"engine": "lnn", "n": 8.5})").ok);
  EXPECT_FALSE(
      parse_serve_request(R"({"engine": "lnn", "n": 8, "n": 9})").ok)
      << "duplicate keys";

  const ServeRequest typo =
      parse_serve_request(R"({"id": "x", "engine": "lnn", "n": 8, "nap": 1})");
  EXPECT_FALSE(typo.ok);
  EXPECT_NE(typo.error.find("unknown field"), std::string::npos);
  EXPECT_EQ(typo.id, "\"x\"") << "id survives rejection for the response";
}

TEST(Serve, LoopStreamsResponsesInRequestOrderWithCacheHits) {
  std::istringstream in(
      "{\"id\": 1, \"engine\": \"lattice\", \"n\": 9}\n"
      "\n"  // blank lines are skipped
      "{\"id\": 2, \"engine\": \"lattice\", \"n\": 9}\n"
      "{\"id\": 3, \"engine\": \"nosuch\", \"n\": 4}\n"
      "{\"id\": 4, \"bad\"\n");
  std::ostringstream out;
  // One worker serializes the two identical requests, so the second is
  // guaranteed to find the first's cache entry (with more workers they may
  // race and both miss — the service does not coalesce in-flight twins).
  MappingService service{service_options(1)};
  EXPECT_EQ(run_serve_loop(in, out, service), 0);

  std::vector<std::string> lines;
  std::istringstream reread(out.str());
  for (std::string line; std::getline(reread, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u) << out.str();
  EXPECT_NE(lines[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"cache_hit\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"cache_hit\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"map_seconds\":0,"), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\":3"), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[2].find("unknown engine"), std::string::npos);
  EXPECT_NE(lines[3].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("parse error"), std::string::npos);
}

TEST(Serve, SnappedHitAnswersItsOwnRequestedSize) {
  // 10, 16 and 12 all snap to the native 16 on the lattice engine.
  std::istringstream in("{\"id\":1,\"engine\":\"lattice\",\"n\":10}\n"
                        "{\"id\":2,\"engine\":\"lattice\",\"n\":16}\n"
                        "{\"id\":3,\"engine\":\"lattice\",\"n\":12}\n");
  std::ostringstream out;
  MappingService service{service_options(1)};
  EXPECT_EQ(run_serve_loop(in, out, service), 0);

  std::vector<std::string> lines;
  std::istringstream reread(out.str());
  for (std::string line; std::getline(reread, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u) << out.str();
  EXPECT_NE(lines[0].find("\"requested_n\":10,\"n\":16,"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"cache_hit\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("\"requested_n\":16,\"n\":16,"), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("\"requested_n\":12,\"n\":16,"), std::string::npos)
      << lines[2];
  for (const std::size_t i : {1u, 2u}) {
    EXPECT_NE(lines[i].find("\"cache_hit\":true,\"map_seconds\":0,"
                            "\"check_seconds\":0,"),
              std::string::npos)
        << lines[i];
  }
}

TEST(Serve, UnicodeEscapesDecodeToUtf8) {
  const ServeRequest req =
      parse_serve_request(R"({"id": "q", "engine": "lnn", "n": 4})");
  ASSERT_TRUE(req.ok) << req.error;
  EXPECT_EQ(req.request.engine, "lnn");

  // Supplementary-plane escape: the surrogate pair combines into U+1F600
  // and re-encodes as four bytes of UTF-8 in the echoed id.
  const ServeRequest emoji = parse_serve_request(
      R"({"id": "\uD83D\uDE00", "engine": "lnn", "n": 4})");
  ASSERT_TRUE(emoji.ok) << emoji.error;
  EXPECT_EQ(emoji.id, "\"\xF0\x9F\x98\x80\"");

  const ServeRequest bmp = parse_serve_request(
      R"({"id": "\u00e9", "engine": "lnn", "n": 4})");
  ASSERT_TRUE(bmp.ok) << bmp.error;
  EXPECT_EQ(bmp.id, "\"\xC3\xA9\"");

  for (const char* bad : {
           R"({"id": "\uD83D", "engine": "lnn", "n": 4})",   // unpaired high
           R"({"id": "\uDE00", "engine": "lnn", "n": 4})",   // lone low
           R"({"id": "\uD83Dxy", "engine": "lnn", "n": 4})", // high then junk
           R"({"id": "\u12G4", "engine": "lnn", "n": 4})",   // bad hex digit
           R"({"id": "\u12)",                                // truncated
       }) {
    EXPECT_FALSE(parse_serve_request(bad).ok) << bad;
  }
}

ServeRequest parse_unterminated(std::string_view text) {
  // Heap buffer sized exactly to the payload, no NUL terminator: the ASan
  // leg turns any parser read past `end` into a hard failure.
  std::vector<char> exact(text.begin(), text.end());
  return parse_serve_request(std::string_view(exact.data(), exact.size()));
}

TEST(Serve, ParserNeverReadsPastAnUnterminatedBuffer) {
  EXPECT_TRUE(parse_unterminated(R"({"engine":"lnn","n":12})").ok);
  // Truncations ending inside every token class — keyword, number, string,
  // escape — must fail cleanly without touching bytes past the buffer.
  for (const char* bad : {
           R"({"cache":tru)",
           R"({"cache":t)",
           R"({"n":12)",
           R"({"n":)",
           R"({"n":1e)",
           R"({"engine":"ln)",
           R"({"engine":"ln\)",
           R"({"id":"\u00)",
           R"({"engine":"lnn","n":12)",
           R"({)",
       }) {
    EXPECT_FALSE(parse_unterminated(bad).ok) << bad;
  }
}

TEST(Serve, MetricsRequestAnswersInBandAndRejectsMixedShapes) {
  std::istringstream in(
      "{\"id\": 1, \"engine\": \"lnn\", \"n\": 8}\n"
      "{\"id\": 2, \"metrics\": true}\n"
      "{\"metrics\": true, \"n\": 4}\n"
      "{\"metrics\": false}\n");
  std::ostringstream out;
  MappingService service{service_options(1)};
  EXPECT_EQ(run_serve_loop(in, out, service), 0);

  std::vector<std::string> lines;
  std::istringstream reread(out.str());
  for (std::string line; std::getline(reread, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u) << out.str();
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"metrics\":true"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"workers\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"cache\":{"), std::string::npos);
  EXPECT_NE(lines[1].find("\"capacity\":1024"), std::string::npos);
  EXPECT_NE(lines[1].find("\"sat\":{"), std::string::npos);
  EXPECT_NE(lines[1].find("\"map_seconds\":{\"count\":"), std::string::npos);
  EXPECT_NE(lines[2].find("no other fields"), std::string::npos) << lines[2];
  EXPECT_NE(lines[3].find("\\\"metrics\\\" must be true"), std::string::npos)
      << lines[3];
}

TEST(Serve, PipelinedMetricsCountResponsesWrittenAheadOfIt) {
  // Both lines arrive before the job finishes; the snapshot must still
  // describe the response written ahead of it, not the moment it was read.
  std::istringstream in(
      "{\"id\": 1, \"engine\": \"lnn\", \"n\": 8}\n"
      "{\"metrics\": true}\n");
  std::ostringstream out;
  MappingService service{service_options(1)};
  EXPECT_EQ(run_serve_loop(in, out, service), 0);

  std::vector<std::string> lines;
  std::istringstream reread(out.str());
  for (std::string line; std::getline(reread, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u) << out.str();
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"responses\":1,"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"misses\":1,"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"map_seconds\":{\"count\":1,"),
            std::string::npos)
      << lines[1];
}

TEST(Serve, StdioNeverShedsPastTheBacklogBound) {
  // 300 requests is past the stdio reader's 256-entry back-pressure bound
  // and past the socket front-end's default max_pending_per_conn. Over
  // stdio the reader blocks instead of shedding: every request is answered,
  // in order.
  constexpr int kRequests = 300;
  std::string input;
  for (int i = 0; i < kRequests; ++i) {
    input += "{\"id\":" + std::to_string(i) +
             ",\"engine\":\"lnn\",\"n\":4}\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  MappingService service{service_options(1)};
  EXPECT_EQ(run_serve_loop(in, out, service), 0);

  std::vector<std::string> lines;
  std::istringstream reread(out.str());
  for (std::string line; std::getline(reread, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const std::string& line = lines[static_cast<std::size_t>(i)];
    EXPECT_EQ(line.rfind("{\"id\":" + std::to_string(i) + ",\"ok\":true", 0),
              0u)
        << line;
    EXPECT_EQ(line.find("\"shed\""), std::string::npos) << line;
  }
}

TEST(Serve, DeadClientStopsTheLoopAndCancelsTheBacklog) {
  // An output stream whose every write fails — the stdio equivalent of a
  // client that hung up.
  struct FailBuf : std::streambuf {
    int_type overflow(int_type) override { return traits_type::eof(); }
  };
  std::string input;
  for (int i = 0; i < 10; ++i) {
    input += "{\"id\": " + std::to_string(i) +
             ", \"engine\": \"sleeper\", \"n\": 4}\n";
  }
  std::istringstream in(input);
  FailBuf fail_buf;
  std::ostream out(&fail_buf);
  const MapperPipeline pipeline = pipeline_with_sleeper(0.5);
  MappingService service{service_options(1), pipeline};
  WallTimer timer;
  EXPECT_EQ(run_serve_loop(in, out, service), 1);
  // Ten naps at 0.5 s on one worker is 5 s if the loop grinds through the
  // whole backlog; noticing the dead stream after the first response and
  // cancelling the rest must beat that by a wide margin.
  EXPECT_LT(timer.seconds(), 3.0);
}

// ---------------------------------------------------- lifecycle under load --

TEST(Service, DestructionCancelsQueuedJobsAndJoinsWorkers) {
  const MapperPipeline pipeline = pipeline_with_sleeper(0.2);
  JobHandle running, queued;
  {
    MappingService service{service_options(1), pipeline};
    running = service.submit({"sleeper", 4, MapOptions{}});
    queued = service.submit({"lnn", 8, MapOptions{}});
    // Destructor: flips the running job's token, retires the queued one.
  }
  const JobResult ran = running.wait();
  EXPECT_TRUE(ran.status == JobStatus::kDone ||
              ran.status == JobStatus::kCancelled);
  EXPECT_EQ(queued.wait().status, JobStatus::kCancelled);
}

TEST(Service, DestructorOrphansGetQueueTimeAndTheCancelVocabulary) {
  // Shutdown retirement must account like JobHandle::cancel: same error
  // vocabulary, real queue_seconds (not 0.0), no dispatch index.
  const MapperPipeline pipeline = pipeline_with_sleeper(0.3);
  JobHandle queued;
  {
    MappingService service{service_options(1), pipeline};
    JobHandle blocker = service.submit({"sleeper", 4, MapOptions{}});
    queued = service.submit({"lnn", 8, MapOptions{}});
    std::this_thread::sleep_for(20ms);  // accrue observable queue time
  }
  const JobResult out = queued.wait();
  EXPECT_EQ(out.status, JobStatus::kCancelled);
  EXPECT_NE(out.error.find("cancelled before start"), std::string::npos)
      << out.error;
  EXPECT_GT(out.queue_seconds, 0.0)
      << "orphans spent real time queued; the accounting must say so";
  EXPECT_EQ(out.dispatch_index, -1);
}

TEST(Service, DestructionCancelsRunningJobsInsteadOfWaitingOutBudgets) {
  // Shutdown must flip the cancel token of in-flight jobs — destroying a
  // service mid-SATMAP may not block for the 60 s solver budget.
  JobHandle job;
  WallTimer timer;
  {
    MappingService service{service_options(1)};
    MapOptions opts;
    opts.satmap.time_budget_seconds = 60.0;
    job = service.submit({"satmap", 10, opts});
    WallTimer spin;
    while (job.status() == JobStatus::kQueued && spin.seconds() < 10.0) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(job.status(), JobStatus::kRunning);
    timer.reset();
  }
  EXPECT_LT(timer.seconds(), 30.0) << "join must not wait out the budget";
  const JobResult out = job.wait();
  EXPECT_TRUE(out.status == JobStatus::kCancelled ||
              out.status == JobStatus::kDone);
}

TEST(Service, ConcurrentMixedLoadKeepsEveryJobAccounted) {
  // The TSan workout: many producers submitting against one service while
  // workers serve hits and misses concurrently.
  MappingService service{service_options(4)};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 12;
  std::vector<std::thread> producers;
  std::vector<std::vector<JobHandle>> handles(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &handles, p]() {
      const char* engines[] = {"lnn", "heavy_hex", "sycamore", "lattice"};
      for (int i = 0; i < kPerProducer; ++i) {
        BatchRequest req;
        req.engine = engines[(p + i) % 4];
        req.n = 4 + (i % 3) * 5;
        handles[p].push_back(service.submit(std::move(req)));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& per_producer : handles) {
    for (auto& handle : per_producer) {
      const JobResult out = handle.wait();
      ASSERT_EQ(out.status, JobStatus::kDone) << out.error;
      EXPECT_TRUE(out.result->check.ok) << out.result->check.error;
    }
  }
  const ResultCache::Stats stats = service.cache_stats();
  EXPECT_GT(stats.hits, 0u) << "repeated requests must hit";
}

// ------------------------------------------------------- device requests --

// A 4-qubit line device as the inline-JSON value of a "device" field (the
// inner quotes are escaped because it rides inside a JSON string).
const char* kInlineDevice =
    R"("{\"qubits\": 4, \"edges\": [{\"a\": 0, \"b\": 1},)"
    R"( {\"a\": 1, \"b\": 2}, {\"a\": 2, \"b\": 3}]}")";

TEST(Serve, ParsesInlineDeviceAndObjective) {
  const ServeRequest req = parse_serve_request(
      std::string(R"({"id": 1, "engine": "sabre", "n": 4,)"
                  R"( "objective": "fidelity", "device": )") +
      kInlineDevice + "}");
  ASSERT_TRUE(req.ok) << req.error;
  EXPECT_TRUE(req.device_loaded);
  ASSERT_NE(req.request.options.device, nullptr);
  EXPECT_EQ(req.request.options.device->num_qubits(), 4);
  EXPECT_EQ(req.request.options.objective, Objective::kFidelity);

  const ServeRequest depth = parse_serve_request(
      R"({"engine": "sabre", "n": 4, "objective": "depth"})");
  ASSERT_TRUE(depth.ok) << depth.error;
  EXPECT_EQ(depth.request.options.objective, Objective::kDepth);
}

TEST(Serve, DeviceLoadFailuresAnswerInBandWithThePositionedMessage) {
  // Malformed inline document: the loader's positioned message comes back.
  const ServeRequest bad = parse_serve_request(
      R"({"id": 2, "engine": "sabre", "n": 4, "device": "{\"qubits\": 0}"})");
  EXPECT_FALSE(bad.ok);
  EXPECT_TRUE(bad.device_error);
  EXPECT_NE(bad.error.find("device json"), std::string::npos) << bad.error;
  EXPECT_EQ(bad.id, "2") << "id survives rejection for the response";

  // Missing file: same in-band path, the path named in the message.
  const ServeRequest missing = parse_serve_request(
      R"({"engine": "sabre", "n": 4, "device": "/nonexistent/dev.json"})");
  EXPECT_FALSE(missing.ok);
  EXPECT_TRUE(missing.device_error);
  EXPECT_NE(missing.error.find("/nonexistent/dev.json"), std::string::npos);

  // Wrong types fail loudly.
  EXPECT_FALSE(
      parse_serve_request(R"({"engine": "sabre", "n": 4, "device": 3})").ok);
  EXPECT_FALSE(parse_serve_request(
                   R"({"engine": "sabre", "n": 4, "objective": "speed"})")
                   .ok);
  EXPECT_FALSE(parse_serve_request(
                   R"({"engine": "sabre", "n": 4, "objective": true})")
                   .ok);
}

TEST(Serve, DeviceRequestsMapCacheAndRecalibrationMisses) {
  // Same request twice (one worker: the second is guaranteed to hit), then
  // the same shape with one edge's error rate edited — a different
  // fingerprint, which must miss.
  const std::string tail =
      std::string(R"("engine": "sabre", "n": 4, "device": )") + kInlineDevice +
      "}\n";
  const std::string edited_tail =
      std::string(R"("engine": "sabre", "n": 4, "device": )") +
      R"("{\"qubits\": 4, \"edges\": [{\"a\": 0, \"b\": 1, \"error\": 0.01},)"
      R"( {\"a\": 1, \"b\": 2}, {\"a\": 2, \"b\": 3}]}")" + "}\n";
  std::istringstream in(std::string(R"({"id": 1, )") + tail +
                        R"({"id": 2, )" + tail +
                        R"({"id": 3, )" + edited_tail);
  std::ostringstream out;
  MappingService service{service_options(1)};
  EXPECT_EQ(run_serve_loop(in, out, service), 0);

  std::vector<std::string> lines;
  std::istringstream reread(out.str());
  for (std::string line; std::getline(reread, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u) << out.str();
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"log10_fidelity\":"), std::string::npos);
  EXPECT_NE(lines[0].find("\"cache_hit\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("\"cache_hit\":true"), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":true"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"cache_hit\":false"), std::string::npos)
      << "edited calibration must not alias the cached entry";
}

TEST(Serve, MetricsCountDeviceLoadsAndCacheExpiry) {
  ServeMetrics metrics;
  ServeRequest loaded;
  loaded.ok = true;
  loaded.device_loaded = true;
  metrics.record_request(loaded);
  ServeRequest failed;
  failed.device_error = true;
  metrics.record_request(failed);
  metrics.record_request(ServeRequest{});  // no device involved
  EXPECT_EQ(metrics.device_loads.load(), 1u);
  EXPECT_EQ(metrics.device_load_errors.load(), 1u);

  MappingService::Options options = service_options(1);
  options.cache_ttl_seconds = 123.0;
  MappingService service{options};
  const std::string doc = metrics_json(service, metrics);
  EXPECT_NE(doc.find("\"devices\":{\"loaded\":1,\"load_errors\":1}"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"expired\":0"), std::string::npos) << doc;
}

TEST(Service, CacheTtlOptionAgesServedEntries) {
  MappingService::Options options = service_options(1);
  options.cache_ttl_seconds = 0.02;
  MappingService service{options};
  BatchRequest req;
  req.engine = "lattice";
  req.n = 9;
  ASSERT_EQ(service.submit(req).wait().status, JobStatus::kDone);
  std::this_thread::sleep_for(50ms);
  const JobResult again = service.submit(req).wait();
  ASSERT_EQ(again.status, JobStatus::kDone);
  EXPECT_FALSE(again.cache_hit) << "the entry should have aged out";
  EXPECT_GE(service.cache_stats().expired, 1u);
}

}  // namespace
}  // namespace qfto
