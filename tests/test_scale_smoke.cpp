// Device-scale smoke test: the tentpole claim of the oracle/fused-verify
// redesign is that QFT-8192 on the lattice backend is interactive — mapped
// AND verified in under a second of wall clock in a Release build.
//
// The assertions only run in optimized, unsanitized builds: Debug and
// sanitizer configs execute a heavily reduced size purely for coverage, since
// their per-gate costs are 10-50x and a wall-clock bound there measures the
// instrumentation, not the code.
//
// The budget self-calibrates to the host's memory system: device-scale
// emission is store-bandwidth-bound (the QFT-8192 gate stream alone is
// 68.4M gates, ~1.1 GB of first-touch writes at 16 B per gate), so the test
// measures fresh-memory store
// bandwidth once and widens the budget by kReferenceStoreGBps / measured
// when the host is slower than the reference machine. On hardware at or
// above the reference the factor is 1 and the advertised bounds are asserted
// verbatim. QFTO_SMOKE_BUDGET_SCALE (a float multiplier, e.g. "3") relaxes
// further for shared CI runners.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "circuit/gate.hpp"
#include "circuit/qft_spec.hpp"
#include "pipeline/mapper_pipeline.hpp"

namespace qfto {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Fresh-store bandwidth a machine must reach for the verbatim bounds:
/// writing gate-sized records into just-allocated memory, page faults
/// included — the exact cost profile of device-scale emission. Desktop-class
/// hosts measure well above this; slow VMs scale the budget up proportionally.
constexpr double kReferenceStoreGBps = 6.0;

double measured_store_gbps() {
  constexpr std::size_t kBytes = 128u << 20;
  constexpr std::size_t kCount = kBytes / sizeof(Gate);
  std::vector<Gate> buf;
  buf.reserve(kCount);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kCount; ++i) {
    buf.push_back(Gate::cphase(static_cast<std::int32_t>(i),
                               static_cast<std::int32_t>(i + 1), 0.5));
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(t1 - t0).count();
  return s > 0.0 ? kBytes / s / 1e9 : kReferenceStoreGBps;
}

double budget_scale() {
  static const double machine = [] {
    const double factor =
        std::clamp(kReferenceStoreGBps / measured_store_gbps(), 1.0, 10.0);
    if (factor > 1.0) {
      std::printf("[ scale    ] host below reference store bandwidth; "
                  "budgets widened %.2fx\n", factor);
    }
    return factor;
  }();
  const char* env = std::getenv("QFTO_SMOKE_BUDGET_SCALE");
  if (env == nullptr || *env == '\0') return machine;
  const double scale = std::atof(env);
  return machine * (scale > 0.0 ? scale : 1.0);
}

/// Maps + verifies QFT(n) on `engine` and asserts correctness; returns the
/// map+check wall clock.
double timed_run(const std::string& engine, std::int32_t n,
                 double budget_seconds) {
  const MapResult r = map_qft(engine, n);
  EXPECT_TRUE(r.check.ok) << engine << " n=" << n << ": " << r.check.error;
  EXPECT_EQ(r.check.counts.cphase, qft_pair_count(r.n));
  EXPECT_EQ(r.check.counts.h, r.n);
  const double seconds = r.timings.total_seconds();
  if (budget_seconds > 0.0) {
    EXPECT_LT(seconds, budget_seconds)
        << engine << " n=" << n << " (native " << r.n << ", "
        << r.check.counts.total() << " gates) took " << seconds << " s";
  }
  return seconds;
}

TEST(ScaleSmoke, Qft4096LatticeMapsAndVerifiesInteractively) {
  if (!kOptimized || kSanitized) {
    timed_run("lattice", 256, /*budget_seconds=*/0.0);  // coverage only
    GTEST_SKIP() << "wall-clock budget asserted only in Release builds";
  }
  timed_run("lattice", 4096, 0.5 * budget_scale());
}

TEST(ScaleSmoke, Qft8192LatticeMapsAndVerifiesUnderOneSecond) {
  // The headline acceptance bound: requested 8192 snaps to the native 91x91
  // lattice (n = 8281, ~68.6M gates), mapped and fused-verified < 1 s.
  if (!kOptimized || kSanitized) {
    timed_run("lattice", 256, /*budget_seconds=*/0.0);
    GTEST_SKIP() << "wall-clock budget asserted only in Release builds";
  }
  timed_run("lattice", 8192, 1.0 * budget_scale());
}

TEST(ScaleSmoke, FusedVerifyLeavesNoSeparateCheckPass) {
  // At any size, the fused path reports essentially zero check_seconds: the
  // verification work rides the map stage.
  const MapResult r = map_qft("lattice", kOptimized && !kSanitized ? 1024 : 64);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  EXPECT_EQ(r.timings.check_seconds, 0.0);
}

}  // namespace
}  // namespace qfto
