// Shared helpers for the table-reproduction benchmarks.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "arch/latency_model.hpp"
#include "circuit/stats.hpp"
#include "common/format.hpp"
#include "common/timer.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "verify/qft_checker.hpp"

namespace qfto::bench {

struct Measured {
  Cycle depth = 0;
  std::int64_t swaps = 0;
  double seconds = 0.0;
  bool ok = false;
};

/// Checks a mapped circuit and packages the paper's metrics. Aborts the
/// process on verification failure: a benchmark must never report numbers
/// for an invalid circuit.
inline Measured measure(const MappedCircuit& mc, const CouplingGraph& g,
                        double seconds,
                        const LatencyModel& latency = LatencyModel()) {
  const auto r = check_qft_mapping(mc, g, latency);
  if (!r.ok) {
    std::fprintf(stderr, "BENCH ABORT — invalid mapping on %s: %s\n",
                 g.name().c_str(), r.error.c_str());
    std::abort();
  }
  return Measured{r.depth, r.counts.swap, seconds, true};
}

/// Runs a registered pipeline engine end-to-end (map + native-latency check)
/// and packages the paper's metrics; `seconds` reports mapping time only.
/// Aborts on verification failure, like measure().
inline Measured run_engine(const std::string& engine, std::int32_t n,
                           MapOptions opts = {}) {
  opts.verify = true;
  const MapResult r = map_qft(engine, n, opts);
  if (!r.check.ok) {
    std::fprintf(stderr, "BENCH ABORT — invalid %s mapping on %s: %s\n",
                 engine.c_str(), r.graph.name().c_str(),
                 r.check.error.c_str());
    std::abort();
  }
  return Measured{r.check.depth, r.check.counts.swap, r.timings.map_seconds,
                  true};
}

/// Environment-tunable knob, e.g. SATMAP budget or SABRE trial count.
inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : fallback;
}

inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v ? std::atol(v) : fallback;
}

}  // namespace qfto::bench
