#include "pipeline/batch.hpp"

#include <algorithm>
#include <optional>

#include "service/mapping_service.hpp"

namespace qfto {

std::vector<BatchItem> map_qft_batch(const std::vector<BatchRequest>& requests,
                                     std::int32_t num_threads,
                                     const MapperPipeline& pipeline) {
  std::vector<BatchItem> items(requests.size());
  if (requests.empty()) return items;

  // The shared service owns the persistent worker pool — no per-call thread
  // spawn/join. A caller-supplied registry cannot ride that pool (it is
  // bound to the global pipeline), so it gets a service scoped to the call:
  // same code path, private workers.
  std::optional<MappingService> local;
  MappingService* service;
  if (&pipeline == &MapperPipeline::global()) {
    service = &MappingService::shared();
  } else {
    MappingService::Options options;
    options.num_threads = num_threads;
    local.emplace(options, pipeline);
    service = &*local;
  }

  // `num_threads` keeps its historic meaning as the concurrency bound: at
  // most that many requests are in flight at once (windowed submission over
  // the pool). Collection order is request order, which also makes the
  // oldest handle the natural one to wait on.
  const std::size_t window =
      num_threads <= 0 ? requests.size()
                       : static_cast<std::size_t>(num_threads);
  std::vector<JobHandle> handles(requests.size());
  std::size_t submitted = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    while (submitted < requests.size() && submitted - i < window) {
      handles[submitted] = service->submit(requests[submitted]);
      ++submitted;
    }
    JobResult outcome = handles[i].wait();
    if (outcome.ok()) {
      items[i].ok = true;
      items[i].cache_hit = outcome.cache_hit;
      // A result the cache holds (every hit, and a cacheable miss) is shared
      // and must be copied out. An uncached miss is owned solely by this
      // batch's private job: the only two references are `outcome.result`
      // and the job state behind our local handle, so moving out skips a
      // potentially multi-megabyte deep copy per item.
      if (!outcome.cache_hit && outcome.result.use_count() == 2) {
        items[i].result =
            std::move(const_cast<MapResult&>(*outcome.result));
      } else {
        items[i].result = *outcome.result;
        items[i].result.requested_n = outcome.requested_n;
        items[i].result.timings = outcome.timings();
      }
    } else {
      // Engine failures were exceptions in the thread-pool era; the service
      // captures them per job, so the error text flows through unchanged.
      items[i].error = outcome.error.empty() ? "unknown error" : outcome.error;
    }
  }
  return items;
}

}  // namespace qfto
