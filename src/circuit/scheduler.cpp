#include "circuit/scheduler.hpp"

namespace qfto {

std::vector<std::vector<std::int32_t>> Schedule::layers() const {
  if (start.empty()) return {};
  // Start cycles are bounded by the makespan, so a bucket fill replaces the
  // former std::map: no comparisons, no per-node allocations. Size by the
  // max start actually present — hand-filled Schedules may carry starts past
  // their depth field (or a huge depth with small starts), and trailing
  // empty buckets are dropped anyway.
  Cycle last = 0;
  for (const Cycle s : start) {
    require(s >= 0, "Schedule::layers: negative start cycle");
    last = std::max(last, s);
  }
  std::vector<std::vector<std::int32_t>> buckets(
      static_cast<std::size_t>(last) + 1);
  for (std::size_t i = 0; i < start.size(); ++i) {
    buckets[static_cast<std::size_t>(start[i])].push_back(
        static_cast<std::int32_t>(i));
  }
  std::vector<std::vector<std::int32_t>> out;
  for (auto& gates : buckets) {
    if (!gates.empty()) out.push_back(std::move(gates));
  }
  return out;
}

}  // namespace qfto
