#include "pipeline/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace qfto {

namespace {

void run_item(const BatchRequest& req, const MapperPipeline& pipeline,
              BatchItem& item) {
  try {
    if (req.circuit == nullptr) {
      item.result = pipeline.run(req.engine, req.n, req.options);
    } else {
      require(req.n == 0 || req.n == req.circuit->num_qubits(),
              "BatchRequest: n does not match the supplied circuit");
      item.result = pipeline.run_circuit(req.engine, *req.circuit,
                                         req.options);
    }
    item.ok = true;
  } catch (const std::exception& e) {
    item.error = e.what();
  } catch (...) {
    item.error = "unknown error";
  }
}

}  // namespace

std::vector<BatchItem> map_qft_batch(const std::vector<BatchRequest>& requests,
                                     std::int32_t num_threads,
                                     const MapperPipeline& pipeline) {
  std::vector<BatchItem> items(requests.size());
  std::size_t workers =
      num_threads > 0 ? static_cast<std::size_t>(num_threads)
                      : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, requests.size());

  // Workers claim requests in order from a shared counter; each writes only
  // its own items.
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
      run_item(requests[i], pipeline, items[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(work);
  if (workers > 0) work();  // the calling thread is the first worker
  for (std::thread& t : pool) t.join();
  return items;
}

}  // namespace qfto
