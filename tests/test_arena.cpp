// The per-worker scratch behind the trial runtime (src/runtime/scratch.h):
// pooled objects round-trip with their storage intact, and — the acceptance
// criterion for the layer — a warmed-up sweep executes its chunks without
// taking a single new allocation from the pool's point of view: the
// runtime.arena.cache_misses counter stops moving while cache_hits keeps
// climbing.
//
// Everything here runs at threads=1 so all scratch traffic stays on the
// calling thread, whose shard a Registry snapshot flushes directly.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/constructions.h"
#include "obs/telemetry.h"
#include "runtime/run_trials.h"
#include "runtime/scratch.h"
#include "sweep/sweep.h"

namespace sqs {
namespace {

struct TelemetryGuard {
  obs::TelemetryConfig saved = obs::current_config();
  TelemetryGuard() { obs::Registry::instance().reset(); }
  ~TelemetryGuard() {
    obs::configure(saved);
    obs::Registry::instance().reset();
  }
};

TEST(Arena, BorrowedObjectReturnsToPool) {
  WorkerScratch& scratch = WorkerScratch::for_thread();
  std::vector<int>* raw = nullptr;
  {
    Borrowed<std::vector<int>> loan = scratch.borrow<std::vector<int>>();
    loan->assign(100, 7);
    raw = loan.get();
  }
  // The loan ended on this thread, so the same object (with its capacity)
  // comes back on the next borrow.
  Borrowed<std::vector<int>> again = scratch.borrow<std::vector<int>>();
  EXPECT_EQ(again.get(), raw);
  EXPECT_GE(again->capacity(), 100u);
}

// The acceptance assertion: once the pools are warm, repeating an identical
// mixed sweep workload performs zero pool misses — every pooled per-chunk
// temporary is served from reuse.
TEST(Arena, SteadyStateSweepsStopAllocating) {
  TelemetryGuard guard;
  obs::TelemetryConfig cfg;
  cfg.metrics = true;
  obs::configure(cfg);

  TrialOptions opts;
  opts.threads = 1;

  auto run_all = [&] {
    const auto fam40 = std::make_shared<OptDFamily>(40, 2);
    const auto fam20 = std::make_shared<OptDFamily>(20, 2);
    const auto fam64 = std::make_shared<OptDFamily>(64, 2);
    sweep_availability({{fam40, 0.3, 4096, 7}, {fam40, 0.4, 2048, 8}}, opts);
    MismatchModel model;
    model.link_miss = 0.25;
    sweep_nonintersection({{fam20, model, 4096, Rng(5), 1.0}}, opts);
    sweep_probes({{fam64, 0.25, 4096, Rng(9)}, {fam64, 0.35, 2048, Rng(10)}},
                 opts);
  };

  run_all();  // cold: populates pools
  run_all();  // settles LIFO order
  const obs::MetricsSnapshot warm = obs::Registry::instance().snapshot();
  run_all();  // steady state
  const obs::MetricsSnapshot after = obs::Registry::instance().snapshot();

  EXPECT_EQ(after.counter("runtime.arena.cache_misses"),
            warm.counter("runtime.arena.cache_misses"))
      << "a warmed-up sweep should never miss the scratch pools";
  EXPECT_GT(after.counter("runtime.arena.cache_hits"),
            warm.counter("runtime.arena.cache_hits"));
  EXPECT_GT(after.counter("runtime.arena.bytes_reused"),
            warm.counter("runtime.arena.bytes_reused"));
  // And the warm-up did exercise the arena in the first place.
  EXPECT_GT(warm.counter("runtime.arena.cache_hits"), 0u);
}

// Reuse must be invisible in the estimates: the same workload yields
// bit-identical results on a cold first run and on arbitrarily warm reruns,
// at 1 and 8 threads.
TEST(Arena, WarmRerunsAreBitIdentical) {
  const auto fam = std::make_shared<OptDFamily>(64, 2);
  std::vector<ProbeMeasurement> reference;
  for (const int threads : {1, 8, 1, 8}) {
    TrialOptions opts;
    opts.threads = threads;
    const std::vector<ProbeMeasurement> got =
        sweep_probes({{fam, 0.25, 8192, Rng(42)}}, opts);
    ASSERT_EQ(got.size(), 1u);
    if (reference.empty()) {
      reference = got;
      continue;
    }
    EXPECT_EQ(got[0].probes_overall.mean(), reference[0].probes_overall.mean());
    EXPECT_EQ(got[0].probes_overall.variance(),
              reference[0].probes_overall.variance());
    EXPECT_EQ(got[0].acquired.successes, reference[0].acquired.successes);
    EXPECT_EQ(got[0].max_probes_seen, reference[0].max_probes_seen);
    EXPECT_EQ(got[0].server_probe_frequency, reference[0].server_probe_frequency);
  }
}

}  // namespace
}  // namespace sqs
