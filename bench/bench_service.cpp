// MappingService throughput and latency — the serving-path numbers the
// ROADMAP's batch-service item asks for.
//
// Families:
//   service_cold/<engine>/n    — submit+wait with the cache disabled: every
//                                request runs the full map+verify pipeline
//                                on a worker.
//   service_cached/<engine>/n  — identical request against a warmed cache:
//                                the hit path (probe, shared result, no copy).
//                                cold/cached is the memoization payoff; the
//                                acceptance bar is >= 10x on the analytical
//                                engines.
//   service_queue_mixed        — a burst of mixed-engine jobs per iteration
//                                on a cold cache; avg_queue_us reports the
//                                mean time a job sat queued before a worker
//                                picked it up.
//   batch_map_qft/n            — map_qft_batch on its per-call worker pool:
//                                full circuits, no service and no cache.
//   socket_mixed_load/clients  — sustained req/s through the TCP front-end:
//                                N concurrent socket clients pushing a mixed
//                                QFT + general-QASM (sabre) stream through
//                                the NetServer; p50/p99 map and queue
//                                latency read back from the server's own
//                                /metrics histograms.
//
// Items/sec counts requests; UseRealTime everywhere because the work happens
// on service workers while the benchmark thread blocks in wait().
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/batch.hpp"
#include "service/mapping_service.hpp"
#include "service/net_server.hpp"
#include "service/serve.hpp"
#include "service/transport.hpp"

namespace {

using namespace qfto;

MappingService::Options options_with(std::int32_t threads,
                                     std::size_t cache_capacity) {
  MappingService::Options options;
  options.num_threads = threads;
  options.cache_capacity = cache_capacity;
  return options;
}

void service_cold(benchmark::State& state, const char* engine) {
  MappingService service{options_with(0, /*cache_capacity=*/0)};
  const auto n = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    const JobResult out = service.submit({engine, n, MapOptions{}}).wait();
    if (!out.ok()) {
      state.SkipWithError(out.error.c_str());
      return;
    }
    benchmark::DoNotOptimize(out.result);
  }
  state.SetItemsProcessed(state.iterations());
}

void service_cached(benchmark::State& state, const char* engine) {
  MappingService service{options_with(0, /*cache_capacity=*/1024)};
  const auto n = static_cast<std::int32_t>(state.range(0));
  const JobResult warm = service.submit({engine, n, MapOptions{}}).wait();
  if (!warm.ok()) {
    state.SkipWithError(warm.error.c_str());
    return;
  }
  for (auto _ : state) {
    const JobResult out = service.submit({engine, n, MapOptions{}}).wait();
    if (!out.ok() || !out.cache_hit) {
      state.SkipWithError("expected a cache hit");
      return;
    }
    benchmark::DoNotOptimize(out.result);
  }
  state.SetItemsProcessed(state.iterations());
}

void service_queue_mixed(benchmark::State& state) {
  // Mixed engine load with caching off: every job occupies a worker, so the
  // queue-latency number reflects scheduling, not memoization.
  const std::vector<BatchRequest> burst = {
      {"lattice", 256, MapOptions{}},   {"sycamore", 256, MapOptions{}},
      {"heavy_hex", 250, MapOptions{}}, {"lnn", 256, MapOptions{}},
      {"lattice", 100, MapOptions{}},   {"sycamore", 100, MapOptions{}},
      {"heavy_hex", 100, MapOptions{}}, {"lnn", 100, MapOptions{}},
  };
  MappingService service{options_with(0, /*cache_capacity=*/0)};
  double queue_seconds_total = 0.0;
  std::int64_t jobs = 0;
  for (auto _ : state) {
    std::vector<JobHandle> handles;
    handles.reserve(burst.size());
    for (const BatchRequest& req : burst) handles.push_back(service.submit(req));
    for (JobHandle& handle : handles) {
      const JobResult out = handle.wait();
      if (!out.ok()) {
        state.SkipWithError(out.error.c_str());
        return;
      }
      queue_seconds_total += out.queue_seconds;
      ++jobs;
    }
  }
  state.SetItemsProcessed(jobs);
  state.counters["avg_queue_us"] =
      jobs == 0 ? 0.0 : 1e6 * queue_seconds_total / static_cast<double>(jobs);
}

void batch_map_qft(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  std::vector<BatchRequest> requests;
  for (const char* engine : {"lnn", "heavy_hex", "sycamore", "lattice"}) {
    BatchRequest req;
    req.engine = engine;
    req.n = n;
    req.options.verify = true;
    requests.push_back(std::move(req));
  }
  for (auto _ : state) {
    const auto items = map_qft_batch(requests);
    for (const BatchItem& item : items) {
      if (!item.ok) {
        state.SkipWithError(item.error.c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(items);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
}

BENCHMARK_CAPTURE(service_cold, lnn, "lnn")
    ->Arg(256)->Arg(1024)->UseRealTime();
BENCHMARK_CAPTURE(service_cold, heavy_hex, "heavy_hex")
    ->Arg(250)->Arg(1000)->UseRealTime();
BENCHMARK_CAPTURE(service_cold, sycamore, "sycamore")
    ->Arg(256)->Arg(1024)->UseRealTime();
BENCHMARK_CAPTURE(service_cold, lattice, "lattice")
    ->Arg(256)->Arg(1024)->UseRealTime();

BENCHMARK_CAPTURE(service_cached, lnn, "lnn")
    ->Arg(256)->Arg(1024)->UseRealTime();
BENCHMARK_CAPTURE(service_cached, heavy_hex, "heavy_hex")
    ->Arg(250)->Arg(1000)->UseRealTime();
BENCHMARK_CAPTURE(service_cached, sycamore, "sycamore")
    ->Arg(256)->Arg(1024)->UseRealTime();
BENCHMARK_CAPTURE(service_cached, lattice, "lattice")
    ->Arg(256)->Arg(1024)->UseRealTime();

void socket_mixed_load(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kPerClientPerIter = 8;
  MappingService service{options_with(0, /*cache_capacity=*/4096)};
  net::NetServer::Options sopts;
  sopts.host = "127.0.0.1";
  sopts.port = 0;  // ephemeral
  net::NetServer server(service, sopts);
  server.start();

  // JSON-escaped OpenQASM 2.0 payload: the general-circuit ingestion path
  // (from_qasm + sabre) mixed in with the QFT engines.
  const std::string qasm =
      "OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[4];\\n"
      "h q[0];\\ncx q[0],q[1];\\ncx q[1],q[2];\\ncx q[2],q[3];\\n";
  const std::vector<std::string> payloads = {
      "{\"engine\":\"lattice\",\"n\":256}",
      "{\"engine\":\"sycamore\",\"n\":100}",
      "{\"engine\":\"lnn\",\"n\":128}",
      "{\"engine\":\"sabre\",\"trials\":1,\"qasm\":\"" + qasm + "\"}",
  };

  std::atomic<bool> failed{false};
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::string error;
        net::Socket sock = net::dial(server.host(), server.port(), &error);
        if (!sock.valid()) {
          failed = true;
          return;
        }
        net::LineReader reader(sock);
        std::string batch;
        for (int r = 0; r < kPerClientPerIter; ++r) {
          batch += payloads[(c + r) % payloads.size()] + "\n";
        }
        if (!sock.send_all(batch)) {
          failed = true;
          return;
        }
        std::string line;
        for (int r = 0; r < kPerClientPerIter; ++r) {
          if (!reader.next(line) ||
              line.find("\"ok\":true") == std::string::npos) {
            failed = true;
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    if (failed.load()) {
      state.SkipWithError("socket client failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(clients) *
                          kPerClientPerIter);
  const ServeMetrics& m = server.metrics();
  state.counters["map_p50_us"] = 1e6 * m.map_latency.quantile(0.5);
  state.counters["map_p99_us"] = 1e6 * m.map_latency.quantile(0.99);
  state.counters["queue_p50_us"] = 1e6 * m.queue_latency.quantile(0.5);
  state.counters["queue_p99_us"] = 1e6 * m.queue_latency.quantile(0.99);
  state.counters["shed"] =
      static_cast<double>(m.shed.load(std::memory_order_relaxed));
}

void socket_retry_under_shed(benchmark::State& state) {
  // Clients hammering an admission-constrained server through
  // net::request_with_retry: sheds come back `retryable`, the client backs
  // off and re-sends. Measures delivered-request throughput with the retry
  // discipline absorbing the sheds; retries_per_req reports its cost.
  const int clients = static_cast<int>(state.range(0));
  constexpr int kPerClientPerIter = 4;
  MappingService service{options_with(2, /*cache_capacity=*/0)};
  net::NetServer::Options sopts;
  sopts.host = "127.0.0.1";
  sopts.port = 0;
  sopts.max_inflight = 2;  // tight bound: concurrent clients WILL be shed
  net::NetServer server(service, sopts);
  server.start();

  std::atomic<bool> failed{false};
  std::atomic<std::int64_t> attempts_total{0};
  std::int64_t delivered = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        net::RetryPolicy policy;
        policy.max_attempts = 8;
        policy.base_seconds = 0.001;
        policy.max_seconds = 0.05;
        policy.jitter_seed = static_cast<std::uint64_t>(c) + 1;
        for (int r = 0; r < kPerClientPerIter; ++r) {
          const net::RetryResult out = net::request_with_retry(
              server.host(), server.port(),
              "{\"engine\":\"lnn\",\"n\":64}", policy);
          attempts_total.fetch_add(out.attempts, std::memory_order_relaxed);
          if (!out.ok ||
              out.response.find("\"status\":\"ok\"") == std::string::npos) {
            failed = true;
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    if (failed.load()) {
      state.SkipWithError("retry client exhausted its attempts");
      return;
    }
    delivered += static_cast<std::int64_t>(clients) * kPerClientPerIter;
  }
  state.SetItemsProcessed(delivered);
  state.counters["retries_per_req"] =
      delivered == 0
          ? 0.0
          : static_cast<double>(attempts_total.load() - delivered) /
                static_cast<double>(delivered);
  state.counters["shed"] = static_cast<double>(
      server.metrics().shed.load(std::memory_order_relaxed));
}

BENCHMARK(service_queue_mixed)->UseRealTime();
BENCHMARK(batch_map_qft)->Arg(100)->Arg(256)->UseRealTime();
BENCHMARK(socket_mixed_load)->Arg(4)->Arg(8)->UseRealTime();
BENCHMARK(socket_retry_under_shed)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
