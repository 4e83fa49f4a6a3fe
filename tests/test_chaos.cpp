// Chaos / fault-injection proof layer (src/common/fault.hpp): the framework's
// trigger grammar and determinism, the MappingService watchdog hard-enforcing
// deadlines (wedged-job retirement + worker resurrection), the error taxonomy
// and retry/backoff discipline under injected transport faults, crash-safe
// cache persistence, and a mixed-load chaos run with every fault point armed
// at 10% probability. Runs under the CI ASan+UBSan and TSan legs with
// QFTO_FAULTS=ON — zero crashes, zero deadlocks, well-formed responses is the
// contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "arch/line.hpp"
#include "common/fault.hpp"
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
using net::RetryPolicy;
using net::RetryResult;
using net::Socket;

// Cancellable nap engine (same shape as test_service's).
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

// The watchdog's raison d'être: an engine that never polls its cancel token.
// It spins until the shared release flag is set or `cap_seconds` elapses, so
// tests control exactly how long the worker stays wedged — and can wait for
// every detached thread to leave engine code before the pipeline goes out of
// scope (the MappingService destructor contract).
std::atomic<int> g_stubborn_active{0};
std::atomic<bool> g_stubborn_release{false};

class StubbornEngine final : public MapperEngine {
 public:
  explicit StubbornEngine(double cap_seconds) : cap_seconds_(cap_seconds) {}
  std::string name() const override { return "stubborn"; }
  std::string description() const override { return "ignores cancel"; }
  bool deterministic() const override { return false; }
  CouplingGraph build_graph(std::int32_t n,
                            const MapOptions&) const override {
    return make_line(n);
  }
  MappedCircuit map(std::int32_t n, const CouplingGraph&,
                    const MapOptions&) const override {
    struct Guard {
      Guard() { g_stubborn_active.fetch_add(1, std::memory_order_relaxed); }
      ~Guard() { g_stubborn_active.fetch_sub(1, std::memory_order_relaxed); }
    } guard;
    WallTimer timer;
    while (!g_stubborn_release.load(std::memory_order_relaxed) &&
           timer.seconds() < cap_seconds_) {
      std::this_thread::sleep_for(1ms);
    }
    return map_qft_lnn(n);
  }

 private:
  double cap_seconds_;
};

MapperPipeline chaos_pipeline(double sleeper_nap, double stubborn_cap) {
  MapperPipeline pipeline = MapperPipeline::with_paper_engines();
  pipeline.register_engine(std::make_unique<SleeperEngine>(sleeper_nap));
  pipeline.register_engine(std::make_unique<StubbornEngine>(stubborn_cap));
  return pipeline;
}

MappingService::Options service_options(std::int32_t threads,
                                        double grace = 5.0) {
  MappingService::Options options;
  options.num_threads = threads;
  options.cache_capacity = 1024;
  options.wedge_grace_seconds = grace;
  return options;
}

NetServer::Options loopback() {
  NetServer::Options options;
  options.host = "127.0.0.1";
  options.port = 0;
  return options;
}

/// Blocks until every stubborn engine invocation has returned — mandatory
/// before a test scope destroys the pipeline a detached wedged thread may
/// still be executing.
void wait_for_stubborn_exit() {
  g_stubborn_release.store(true, std::memory_order_relaxed);
  WallTimer timer;
  while (g_stubborn_active.load(std::memory_order_relaxed) != 0 &&
         timer.seconds() < 20.0) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(g_stubborn_active.load(std::memory_order_relaxed), 0)
      << "a stubborn engine invocation never returned";
}

/// Minimal structural JSON check: one object, braces balanced outside
/// strings, escapes honoured. The serve responses are flat, so this is
/// enough to catch truncated or interleaved writes.
bool json_well_formed(const std::string& s) {
  if (s.empty() || s.front() != '{') return false;
  int depth = 0;
  bool in_string = false, escaped = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth < 0) return false;
      if (depth == 0 && i + 1 != s.size()) return false;
    }
  }
  return depth == 0 && !in_string;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::compiled_in()) {
      GTEST_SKIP() << "fault injection compiled out (QFTO_FAULTS=OFF)";
    }
    fault::disarm_all();
    g_stubborn_release.store(false, std::memory_order_relaxed);
    ASSERT_EQ(g_stubborn_active.load(std::memory_order_relaxed), 0);
  }
  void TearDown() override {
    fault::disarm_all();
    g_stubborn_release.store(true, std::memory_order_relaxed);
  }
};

// ----------------------------------------------------- framework triggers --

TEST_F(ChaosTest, SpecGrammarParsesAndRejects) {
  std::string error;
  EXPECT_TRUE(fault::arm_spec(
      "service.job.throw=once;net.send.fail=prob:0.25:7@2", &error))
      << error;
  const std::vector<std::string> known = fault::known_points();
  EXPECT_NE(std::find(known.begin(), known.end(), "service.job.throw"),
            known.end());
  EXPECT_NE(std::find(known.begin(), known.end(), "net.send.fail"),
            known.end());

  EXPECT_FALSE(fault::arm_spec("no-equals-sign", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fault::arm_spec("x=prob:1.5", &error)) << "p > 1 must fail";
  EXPECT_FALSE(fault::arm_spec("x=nosuchtrigger", &error));

  fault::disarm_all();
  EXPECT_TRUE(fault::known_points().empty());
}

TEST_F(ChaosTest, CountedTriggersFireOnTheRightHit) {
  fault::arm("t.once", fault::once(3));
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) fired.push_back(QFTO_FAULT_POINT("t.once"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false}));
  EXPECT_EQ(fault::hit_count("t.once"), 5u);
  EXPECT_EQ(fault::fired_count("t.once"), 1u);

  fault::arm("t.after", fault::after(2));
  fired.clear();
  for (int i = 0; i < 5; ++i) fired.push_back(QFTO_FAULT_POINT("t.after"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true}));
}

TEST_F(ChaosTest, ProbabilisticTriggerIsSeededAndReplayable) {
  fault::arm("t.prob", fault::prob(1.0));
  EXPECT_TRUE(QFTO_FAULT_POINT("t.prob"));
  fault::arm("t.prob", fault::prob(0.0));
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(QFTO_FAULT_POINT("t.prob"));

  const auto sample = [] {
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) out.push_back(QFTO_FAULT_POINT("t.prob"));
    return out;
  };
  fault::arm("t.prob", fault::prob(0.5, 42));
  const std::vector<bool> first = sample();
  fault::arm("t.prob", fault::prob(0.5, 42));  // re-arm resets the PRNG
  EXPECT_EQ(first, sample()) << "same seed must replay bit-identically";
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(ChaosTest, UnarmedPointsCostOneBranchAndStayQuiet) {
  // Nothing armed: the macro must not fire and must not register points.
  fault::disarm_all();
  EXPECT_FALSE(QFTO_FAULT_POINT("t.unarmed"));
  EXPECT_TRUE(fault::known_points().empty())
      << "disabled framework must not track hits";
}

// ------------------------------------------------- watchdog + resurrection --

TEST_F(ChaosTest, WatchdogRetiresWedgedJobAndReplacesWorker) {
  const MapperPipeline pipeline = chaos_pipeline(1.0, 30.0);
  MappingService service{service_options(1, /*grace=*/0.2), pipeline};
  ASSERT_EQ(service.num_threads(), 1);

  MappingService::Submit submit;
  submit.deadline_seconds = 0.1;
  const JobResult out =
      service.submit({"stubborn", 4, MapOptions{}}, submit).wait();
  EXPECT_EQ(out.status, JobStatus::kExpired);
  EXPECT_NE(out.error.find("watchdog"), std::string::npos) << out.error;

  const MappingService::Stats stats = service.stats();
  EXPECT_GE(stats.watchdog_fired, 1u);
  EXPECT_EQ(stats.jobs_wedged, 1u);
  EXPECT_EQ(stats.workers_replaced, 1u);
  EXPECT_EQ(service.num_threads(), 1) << "replacement keeps pool capacity";

  // The wedged worker is detached, its replacement must serve new work —
  // while the stubborn engine is *still running* on the detached thread.
  const JobResult next = service.submit({"lnn", 8, MapOptions{}}).wait();
  EXPECT_EQ(next.status, JobStatus::kDone) << next.error;

  wait_for_stubborn_exit();
}

TEST_F(ChaosTest, CooperativeEngineNeedsNoResurrection) {
  const MapperPipeline pipeline = chaos_pipeline(5.0, 1.0);
  MappingService service{service_options(1, /*grace=*/5.0), pipeline};

  MappingService::Submit submit;
  submit.deadline_seconds = 0.05;
  const JobResult out =
      service.submit({"sleeper", 4, MapOptions{}}, submit).wait();
  EXPECT_EQ(out.status, JobStatus::kExpired);
  EXPECT_NE(out.error.find("deadline exceeded"), std::string::npos)
      << out.error;

  const MappingService::Stats stats = service.stats();
  EXPECT_GE(stats.watchdog_fired, 1u) << "watchdog fires the cancel token";
  EXPECT_EQ(stats.jobs_wedged, 0u) << "a polling engine is never wedged";
  EXPECT_EQ(stats.workers_replaced, 0u);
}

// ----------------------------------------------------- worker fault paths --

TEST_F(ChaosTest, InjectedWorkerThrowsSurfaceAsFailedJobs) {
  MappingService service{service_options(2)};

  fault::arm("service.job.throw", fault::always());
  const JobResult thrown = service.submit({"lnn", 8, MapOptions{}}).wait();
  EXPECT_EQ(thrown.status, JobStatus::kFailed);
  EXPECT_NE(thrown.error.find("injected fault"), std::string::npos);

  fault::disarm_all();
  fault::arm("service.job.throw_nonstd", fault::always());
  const JobResult nonstd = service.submit({"lnn", 8, MapOptions{}}).wait();
  EXPECT_EQ(nonstd.status, JobStatus::kFailed);
  EXPECT_NE(nonstd.error.find("unknown error"), std::string::npos)
      << "catch (...) must report the placeholder message";

  fault::disarm_all();
  const JobResult clean = service.submit({"lnn", 8, MapOptions{}}).wait();
  EXPECT_EQ(clean.status, JobStatus::kDone)
      << "the pool must survive both throw paths: " << clean.error;
}

TEST_F(ChaosTest, NonStdThrowOverStdioCarriesTheTaxonomy) {
  MappingService service{service_options(1)};
  fault::arm("service.job.throw_nonstd", fault::always());

  std::istringstream in("{\"id\":7,\"engine\":\"lnn\",\"n\":6}\n");
  std::ostringstream out;
  EXPECT_EQ(run_serve_loop(in, out, service), 0);
  const std::string line = out.str();
  EXPECT_TRUE(json_well_formed(line.substr(0, line.find('\n')))) << line;
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
  EXPECT_NE(line.find("\"status\":\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"retryable\":false"), std::string::npos) << line;
}

TEST_F(ChaosTest, NonStdThrowOverSocketCarriesTheTaxonomy) {
  MappingService service{service_options(1)};
  NetServer server(service, loopback());
  server.start();
  fault::arm("service.job.throw_nonstd", fault::always());

  std::string error;
  Socket sock = net::dial(server.host(), server.port(), &error);
  ASSERT_TRUE(sock.valid()) << error;
  ASSERT_TRUE(sock.send_all("{\"id\":8,\"engine\":\"lnn\",\"n\":6}\n"));
  LineReader reader(sock);
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_TRUE(json_well_formed(line)) << line;
  EXPECT_NE(line.find("\"status\":\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"retryable\":false"), std::string::npos) << line;

  fault::disarm_all();
  ASSERT_TRUE(sock.send_all("{\"id\":9,\"engine\":\"lnn\",\"n\":6}\n"));
  ASSERT_TRUE(reader.next(line));
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
}

TEST_F(ChaosTest, InjectedQueueRejectionRetiresBeforeDispatch) {
  MappingService service{service_options(1)};
  fault::arm("service.queue.reject", fault::always());
  const JobResult out = service.submit({"lnn", 8, MapOptions{}}).wait();
  EXPECT_EQ(out.status, JobStatus::kCancelled);
  EXPECT_NE(out.error.find("injected"), std::string::npos) << out.error;
  EXPECT_EQ(out.dispatch_index, -1) << "no worker may have run it";
}

TEST_F(ChaosTest, InjectedSatBudgetExhaustionSurfacesInBand) {
  MappingService service{service_options(1)};
  fault::arm("sat.budget.exhaust", fault::always());
  MapOptions opts;
  opts.satmap.time_budget_seconds = 30.0;
  const JobResult out = service.submit({"satmap", 4, opts}).wait();
  EXPECT_EQ(out.status, JobStatus::kFailed);
  EXPECT_GE(fault::fired_count("sat.budget.exhaust"), 1u);
}

// ------------------------------------------------------- retry discipline --

TEST_F(ChaosTest, BackoffScheduleIsDeterministicAndClamped) {
  RetryPolicy policy;  // base 0.05, x2, max 1.0
  double prev = 0.0;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double d = net::backoff_delay(policy, attempt);
    EXPECT_EQ(d, net::backoff_delay(policy, attempt)) << "must be pure";
    const double pre = std::min(
        policy.base_seconds * std::pow(policy.multiplier, attempt - 1),
        policy.max_seconds);
    EXPECT_GE(d, 0.5 * pre - 1e-12) << "attempt " << attempt;
    EXPECT_LE(d, pre + 1e-12) << "attempt " << attempt;
    if (attempt <= 3) EXPECT_GT(d, prev) << "early delays must grow";
    prev = d;
  }
  RetryPolicy other = policy;
  other.jitter_seed = 99;
  bool any_differ = false;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    any_differ |= net::backoff_delay(policy, attempt) !=
                  net::backoff_delay(other, attempt);
  }
  EXPECT_TRUE(any_differ) << "different seeds must jitter differently";
}

TEST_F(ChaosTest, RetryRecoversFromOneShed) {
  MappingService service{service_options(2)};
  NetServer server(service, loopback());
  server.start();
  fault::arm("serve.admit.shed", fault::once(1));

  RetryPolicy policy;
  policy.base_seconds = 0.002;
  policy.max_seconds = 0.01;
  const RetryResult out = net::request_with_retry(
      server.host(), server.port(), "{\"id\":1,\"engine\":\"lnn\",\"n\":6}",
      policy);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.attempts, 2) << "shed once, then admitted";
  EXPECT_NE(out.response.find("\"status\":\"ok\""), std::string::npos)
      << out.response;
  EXPECT_EQ(fault::fired_count("serve.admit.shed"), 1u);
}

TEST_F(ChaosTest, RetryRecoversFromOneSendFault) {
  MappingService service{service_options(2)};
  NetServer server(service, loopback());
  server.start();
  // The first send_all anywhere is the client's request write.
  fault::arm("net.send.fail", fault::once(1));

  RetryPolicy policy;
  policy.base_seconds = 0.002;
  policy.max_seconds = 0.01;
  const RetryResult out = net::request_with_retry(
      server.host(), server.port(), "{\"id\":2,\"engine\":\"lnn\",\"n\":6}",
      policy);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.attempts, 2);
  EXPECT_NE(out.response.find("\"status\":\"ok\""), std::string::npos);
}

// --------------------------------------------------- crash-safe cache I/O --

TEST_F(ChaosTest, CorruptCacheEntryCostsExactlyThatEntry) {
  MappingService service{service_options(1)};
  for (const std::int32_t n : {4, 6, 8}) {
    ASSERT_TRUE(service.submit({"lnn", n, MapOptions{}}).wait().ok());
  }
  ASSERT_EQ(service.cache_stats().entries, 3u);
  std::ostringstream saved;
  ASSERT_TRUE(service.cache().save(saved));

  // Mangle the second record's "key" header: that record must quarantine,
  // its neighbours must survive.
  std::string text = saved.str();
  const std::size_t first = text.find("\nentry\n");
  ASSERT_NE(first, std::string::npos);
  const std::size_t second = text.find("\nentry\n", first + 1);
  ASSERT_NE(second, std::string::npos);
  const std::size_t key_at = text.find("key ", second);
  ASSERT_NE(key_at, std::string::npos);
  text.replace(key_at, 3, "kex");

  ResultCache reloaded(1024, 8);
  std::istringstream in(text);
  std::string error;
  EXPECT_TRUE(reloaded.load(in, &error)) << error;
  EXPECT_NE(error.find("quarantined 1"), std::string::npos) << error;
  EXPECT_EQ(reloaded.stats().load_quarantined, 1u);
  EXPECT_EQ(reloaded.stats().entries, 2u)
      << "one corrupt record must cost exactly that record";

  // Truncation mid-record: everything before the cut still loads.
  ResultCache truncated(1024, 8);
  std::istringstream cut(saved.str().substr(0, second + 10));
  EXPECT_TRUE(truncated.load(cut, &error));
  EXPECT_EQ(truncated.stats().entries, 1u);
  EXPECT_EQ(truncated.stats().load_quarantined, 1u);

  // A wrong magic line is still a hard failure — not a cache file at all,
  // or one from a version whose keys no request can hit any more.
  for (const char* magic : {"not-a-cache\n", "qftmap-cache 2\n",
                            "qftmap-cache 3\n"}) {
    ResultCache wrong(1024, 8);
    std::istringstream bad_magic(magic);
    EXPECT_FALSE(wrong.load(bad_magic, &error)) << magic;
  }
}

TEST_F(ChaosTest, SaveFileIsAtomicUnderInjectedFailures) {
  const std::string path = "chaos_cache_atomicity.qcache";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());

  MappingService service{service_options(1)};
  ASSERT_TRUE(service.submit({"lnn", 4, MapOptions{}}).wait().ok());
  std::string error;
  ASSERT_TRUE(service.cache().save_file(path, &error)) << error;
  const std::string before = slurp(path);
  ASSERT_FALSE(before.empty());
  EXPECT_FALSE(file_exists(tmp)) << "no temp droppings after success";

  // Grow the cache, then fail the write: the old file must be untouched.
  ASSERT_TRUE(service.submit({"lnn", 6, MapOptions{}}).wait().ok());
  fault::arm("cache.save.write", fault::always());
  EXPECT_FALSE(service.cache().save_file(path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(slurp(path), before) << "failed save must not touch the target";
  EXPECT_FALSE(file_exists(tmp));

  // Fail the publish step (the rename): same contract.
  fault::disarm_all();
  fault::arm("cache.save.rename", fault::always());
  EXPECT_FALSE(service.cache().save_file(path, &error));
  EXPECT_NE(error.find("rename"), std::string::npos) << error;
  EXPECT_EQ(slurp(path), before);
  EXPECT_FALSE(file_exists(tmp));

  // Healthy again: the save goes through and the file round-trips.
  fault::disarm_all();
  ASSERT_TRUE(service.cache().save_file(path, &error)) << error;
  ResultCache reloaded(1024, 8);
  std::ifstream in(path);
  EXPECT_TRUE(reloaded.load(in, &error)) << error;
  EXPECT_EQ(reloaded.stats().entries, 2u);
  std::remove(path.c_str());
}

// ----------------------------------------------------------- chaos proper --

TEST_F(ChaosTest, MixedLoadWithEveryFaultArmedRecoversCleanly) {
  const MapperPipeline pipeline = chaos_pipeline(0.2, 0.25);
  MappingService service{service_options(4, /*grace=*/0.05), pipeline};
  NetServer::Options options = loopback();
  options.max_inflight = 8;  // small enough that genuine sheds happen too
  NetServer server(service, options);
  server.start();

  // Wedge fuel first, before the spec goes live: stubborn jobs with short
  // deadlines deterministically force watchdog retirements and worker
  // replacements (armed job-throw faults could otherwise kill one before it
  // reached the engine, making the replacement count scheduling-dependent).
  // Their detached engine threads keep running through the chaos load below.
  for (int i = 0; i < 3; ++i) {
    MappingService::Submit submit;
    submit.deadline_seconds = 0.02;
    const JobResult out =
        service.submit({"stubborn", 4, MapOptions{}}, submit).wait();
    EXPECT_EQ(out.status, JobStatus::kExpired) << out.error;
  }
  EXPECT_GE(service.stats().workers_replaced, 3u);
  EXPECT_EQ(service.num_threads(), 4);

  // Every fault point in the catalogue, armed at ~10% with fixed seeds so a
  // failure replays bit-identically.
  std::string error;
  ASSERT_TRUE(fault::arm_spec(
      "net.send.fail=prob:0.1:11;"
      "net.send.short=prob:0.1:12@1;"
      "net.recv.fail=prob:0.1:13;"
      "net.recv.eof=prob:0.05:14;"
      "service.job.throw=prob:0.1:15;"
      "service.job.throw_nonstd=prob:0.1:16;"
      "service.queue.reject=prob:0.1:17;"
      "serve.admit.shed=prob:0.1:18;"
      "cache.save.write=prob:0.1:19;"
      "sat.budget.exhaust=prob:0.5:20",
      &error))
      << error;

  const std::vector<std::string> allowed_status = {
      "\"status\":\"ok\"",        "\"status\":\"error\"",
      "\"status\":\"cancelled\"", "\"status\":\"timeout\"",
      "\"status\":\"shed\""};
  int delivered = 0, succeeded = 0;
  constexpr int kRequests = 40;
  for (int i = 0; i < kRequests; ++i) {
    RetryPolicy policy;
    policy.max_attempts = 6;
    policy.base_seconds = 0.002;
    policy.max_seconds = 0.02;
    policy.jitter_seed = static_cast<std::uint64_t>(i) + 1;
    const std::string request = "{\"id\":" + std::to_string(i) +
                                ",\"engine\":\"" +
                                (i % 3 == 0 ? "lattice" : "lnn") +
                                "\",\"n\":" + std::to_string(4 + i % 5) + "}";
    const RetryResult out = net::request_with_retry(
        server.host(), server.port(), request, policy);
    if (!out.ok) continue;  // transport faults won every attempt: acceptable
    ++delivered;
    ASSERT_TRUE(json_well_formed(out.response)) << out.response;
    bool recognized = false;
    for (const std::string& status : allowed_status) {
      recognized |= out.response.find(status) != std::string::npos;
    }
    EXPECT_TRUE(recognized) << "unknown taxonomy word: " << out.response;
    if (out.response.find("\"status\":\"ok\"") != std::string::npos) {
      ++succeeded;
    }
  }
  // Chaos tolerates lost responses and failed jobs, never a malformed one.
  EXPECT_GE(delivered, kRequests / 2) << "retry should deliver most answers";
  EXPECT_GE(succeeded, 1) << "some jobs must still complete under chaos";

  // Recovery: disarm everything — the pool must be at full capacity (every
  // wedged worker replaced) and serve clean traffic again.
  fault::disarm_all();
  const MappingService::Stats stats = service.stats();
  EXPECT_GE(stats.watchdog_fired, 3u);
  EXPECT_GE(stats.jobs_wedged, 3u);
  EXPECT_GE(stats.workers_replaced, 3u);
  EXPECT_EQ(service.num_threads(), 4);

  std::vector<JobHandle> recovery;
  for (int i = 0; i < 4; ++i) {
    recovery.push_back(service.submit({"lnn", 6 + i, MapOptions{}}));
  }
  for (JobHandle& handle : recovery) {
    const JobResult out = handle.wait();
    EXPECT_EQ(out.status, JobStatus::kDone) << out.error;
  }

  // Metrics must still reconcile with the service's own counters.
  std::string dial_error;
  Socket sock = net::dial(server.host(), server.port(), &dial_error);
  ASSERT_TRUE(sock.valid()) << dial_error;
  ASSERT_TRUE(sock.send_all("{\"metrics\":true}\n"));
  LineReader reader(sock);
  std::string metrics;
  ASSERT_TRUE(reader.next(metrics));
  EXPECT_TRUE(json_well_formed(metrics)) << metrics;
  const MappingService::Stats now = service.stats();
  const std::string service_doc =
      "\"service\":{\"watchdog_fired\":" + std::to_string(now.watchdog_fired) +
      ",\"jobs_wedged\":" + std::to_string(now.jobs_wedged) +
      ",\"workers_replaced\":" + std::to_string(now.workers_replaced) + "}";
  EXPECT_NE(metrics.find(service_doc), std::string::npos) << metrics;

  wait_for_stubborn_exit();
}

}  // namespace
}  // namespace qfto
