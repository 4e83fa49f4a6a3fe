// Parallel batch mapping over the MapperPipeline: compile many (engine, n)
// requests concurrently. Since the service PR this is a thin driver over
// MappingService::shared() — the persistent worker pool — instead of
// spawning and joining a fresh std::thread pool per call; repeated
// deterministic requests are served from the service's ResultCache.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pipeline/mapper_pipeline.hpp"

namespace qfto {

struct BatchRequest {
  std::string engine;
  std::int32_t n = 0;
  MapOptions options;  // `target`, if set, must outlive the batch call
  /// Non-null switches the job to the general entry point: map *this*
  /// circuit (MapperPipeline::run_circuit) instead of QFT(n). `n` must then
  /// equal circuit->num_qubits() (or be 0: submit() fills it in). Held by
  /// shared_ptr so queued jobs and the serve front-end never deep-copy a
  /// large parsed circuit. Last member so existing {engine, n, options}
  /// aggregate initializers stay valid.
  std::shared_ptr<const Circuit> circuit;
};

/// Per-request outcome. Engine failures (unknown engine, SATMAP TLE, bad
/// target) are captured here instead of aborting the whole batch.
struct BatchItem {
  bool ok = false;
  std::string error;  // empty when ok
  MapResult result;   // valid when ok
  /// Served from the service's ResultCache: `result` is bit-identical to a
  /// fresh run, with zero timings (no work was done).
  bool cache_hit = false;
};

/// Runs every request through `pipeline`, `num_threads` at a time
/// (0 = hardware concurrency). Results are returned in request order.
/// Requests ride the shared MappingService pool (no per-call thread spawn);
/// a non-global `pipeline` gets a service scoped to the call.
std::vector<BatchItem> map_qft_batch(
    const std::vector<BatchRequest>& requests, std::int32_t num_threads = 0,
    const MapperPipeline& pipeline = MapperPipeline::global());

}  // namespace qfto
