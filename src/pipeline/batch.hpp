// Parallel batch mapping over the MapperPipeline: compile many (engine, n)
// requests concurrently on a worker pool scoped to the call. Every item is
// a full MapResult, circuit included; the serve path (MappingService) runs
// on summaries instead and keeps its own cache.
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
  /// equal circuit->num_qubits() (or be 0: the circuit's count is taken).
  /// Held by shared_ptr so queued jobs and the serve front-end never
  /// deep-copy a large parsed circuit. Last member so existing
  /// {engine, n, options} aggregate initializers stay valid.
  std::shared_ptr<const Circuit> circuit;
};

/// Per-request outcome. Engine failures (unknown engine, SATMAP TLE, bad
/// target) are captured here instead of aborting the whole batch.
struct BatchItem {
  bool ok = false;
  std::string error;  // empty when ok
  MapResult result;   // valid when ok
};

/// Runs every request through `pipeline` on `num_threads` workers
/// (0 = hardware concurrency, never more than there are requests). Results
/// are returned in request order.
std::vector<BatchItem> map_qft_batch(
    const std::vector<BatchRequest>& requests, std::int32_t num_threads = 0,
    const MapperPipeline& pipeline = MapperPipeline::global());

}  // namespace qfto
