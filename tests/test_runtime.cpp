// The parallel trial runtime's determinism contract: for a fixed chunk
// size, every refactored Monte Carlo entry point must produce bit-identical
// results for 1, 2, and 8 threads (chunk c is seeded by Rng::split(c) and
// partial accumulators merge in chunk order, so scheduling cannot leak into
// the output). Plus exception propagation and the zero-trial / nested edge
// cases. The CI TSan job runs this binary with SQS_THREADS=8 to shake out
// data races in the pool itself.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/constructions.h"
#include "mismatch/model.h"
#include "obs/telemetry.h"
#include "probe/measurements.h"
#include "runtime/run_trials.h"
#include "runtime/thread_pool.h"
#include "sim/harness.h"

namespace sqs {
namespace {

const int kThreadCounts[] = {1, 2, 8};

TEST(RunTrials, SumsEveryTrialExactlyOnce) {
  for (const int threads : kThreadCounts) {
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 64;
    const std::uint64_t total = run_trials(
        1000, Rng(1), std::uint64_t{0},
        [](std::uint64_t& acc, std::uint64_t t, Rng&) { acc += t; },
        [](std::uint64_t& acc, std::uint64_t part) { acc += part; }, opts);
    EXPECT_EQ(total, 1000ull * 999ull / 2) << threads << " threads";
  }
}

TEST(RunTrials, ChunkRngDependsOnlyOnChunkIndex) {
  // The random stream observed by trial t must not depend on the thread
  // count: collect one draw per trial and compare across thread counts.
  std::vector<std::uint64_t> reference;
  for (const int threads : kThreadCounts) {
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 16;
    auto draws = run_trials(
        200, Rng(99), std::vector<std::uint64_t>{},
        [](std::vector<std::uint64_t>& acc, std::uint64_t, Rng& rng) {
          acc.push_back(rng.next_u64());
        },
        [](std::vector<std::uint64_t>& acc, std::vector<std::uint64_t>&& part) {
          acc.insert(acc.end(), part.begin(), part.end());
        },
        opts);
    ASSERT_EQ(draws.size(), 200u);
    if (reference.empty()) {
      reference = std::move(draws);
    } else {
      EXPECT_EQ(draws, reference) << threads << " threads";
    }
  }
}

TEST(RunTrials, ZeroTrialsReturnsZeroAccumulator) {
  for (const int threads : {1, 4}) {
    TrialOptions opts;
    opts.threads = threads;
    const int result = run_trials(
        0, Rng(1), 42,
        [](int& acc, std::uint64_t, Rng&) { acc += 1; },
        [](int& acc, int part) { acc += part; }, opts);
    EXPECT_EQ(result, 42);
  }
}

TEST(RunTrials, ExceptionInTrialPropagates) {
  for (const int threads : {1, 4}) {
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 16;
    std::atomic<int> executed{0};
    EXPECT_THROW(
        run_trials(
            10000, Rng(1), 0,
            [&](int&, std::uint64_t t, Rng&) {
              executed.fetch_add(1, std::memory_order_relaxed);
              if (t == 1500) throw std::runtime_error("boom");
            },
            [](int& acc, int part) { acc += part; }, opts),
        std::runtime_error)
        << threads << " threads";
    // The abort shortcut must actually stop claiming work.
    EXPECT_LT(executed.load(), 10000) << threads << " threads";
  }
}

TEST(RunTrials, NestedInvocationRunsInlineAndMatches) {
  auto nested_sum = [](int threads) {
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 4;
    return run_trials(
        32, Rng(5), std::uint64_t{0},
        [](std::uint64_t& acc, std::uint64_t t, Rng& rng) {
          TrialOptions inner_opts;
          inner_opts.threads = 8;  // must degrade to inline, not deadlock
          inner_opts.chunk_size = 8;
          acc += run_trials(
              64, rng.split(t), std::uint64_t{0},
              [](std::uint64_t& a, std::uint64_t, Rng& r) {
                a += r.next_u64() >> 60;
              },
              [](std::uint64_t& a, std::uint64_t p) { a += p; }, inner_opts);
        },
        [](std::uint64_t& acc, std::uint64_t part) { acc += part; }, opts);
  };
  const std::uint64_t sequential = nested_sum(1);
  for (const int threads : {2, 8})
    EXPECT_EQ(nested_sum(threads), sequential) << threads << " threads";
}

// The pool owns the inline fallback: a chunk that calls for_each_chunk
// directly (not through run_trials) runs the inner chunks inline on its own
// thread instead of deadlocking on the pool's batch lock.
TEST(RunTrials, NestedForEachChunkRunsInline) {
  const std::uint64_t kInner = 16;
  TrialOptions opts;
  opts.threads = 8;
  opts.chunk_size = 1;
  const std::vector<std::uint64_t> visits = run_trial_chunks(
      8, Rng(3), std::vector<std::uint64_t>{},
      [&](std::vector<std::uint64_t>& acc, const TrialContext&, Rng&) {
        acc.assign(kInner, 0);
        ThreadPool::global(7).for_each_chunk(
            kInner, 8, [&](std::uint64_t c) { ++acc[c]; });
      },
      [](std::vector<std::uint64_t>& total,
         std::vector<std::uint64_t>&& part) {
        total.resize(part.size(), 0);
        for (std::size_t i = 0; i < part.size(); ++i) total[i] += part[i];
      },
      opts);
  ASSERT_EQ(visits.size(), kInner);
  for (std::uint64_t c = 0; c < kInner; ++c)
    EXPECT_EQ(visits[c], 8u) << "inner chunk " << c;
}

// run_trial_chunks is the one-cell run_sweep, so it records the sweep
// metrics: one run, one cell, and every one of its chunks.
TEST(RunTrials, SingleCellRunRecordsSweepMetrics) {
  const obs::TelemetryConfig saved = obs::current_config();
  obs::TelemetryConfig cfg = saved;
  cfg.metrics = true;
  obs::configure(cfg);
  for (const int threads : kThreadCounts) {
    obs::Registry::instance().reset();
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 10;
    run_trial_chunks(
        95, Rng(4), 0, [](int&, const TrialContext&, Rng&) {},
        [](int&, int) {}, opts);
    const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
    EXPECT_EQ(snap.counter("sweep.runs"), 1u) << threads << " threads";
    EXPECT_EQ(snap.counter("sweep.cells"), 1u) << threads << " threads";
    EXPECT_EQ(snap.counter("sweep.chunks_executed"), 10u)
        << threads << " threads";
  }
  obs::configure(saved);
  obs::Registry::instance().reset();
}

TEST(RunTrials, ParseThreadCountValidatesTokens) {
  EXPECT_EQ(parse_thread_count("8"), 8);
  EXPECT_EQ(parse_thread_count("1"), 1);
  EXPECT_EQ(parse_thread_count("4096"), 4096);
  // Everything else is rejected as 0: absent, empty, non-numeric, trailing
  // junk, non-positive, over the cap.
  EXPECT_EQ(parse_thread_count(nullptr), 0);
  EXPECT_EQ(parse_thread_count(""), 0);
  EXPECT_EQ(parse_thread_count("0"), 0);
  EXPECT_EQ(parse_thread_count("-3"), 0);
  EXPECT_EQ(parse_thread_count("4097"), 0);
  EXPECT_EQ(parse_thread_count("8x"), 0);
  EXPECT_EQ(parse_thread_count(" 8"), 0);
  EXPECT_EQ(parse_thread_count("eight"), 0);
}

// Both spellings of the flag must reach the same validated parser. The bug
// this pins down: "--threads=8" used to be silently ignored, and "--threads
// garbage" went through a bare atoi with no range check.
TEST(RunTrials, InitThreadsFromArgsHandlesBothFormsAndRejectsJunk) {
  auto run = [](std::vector<std::string> tokens) {
    std::vector<char*> argv;
    for (std::string& t : tokens) argv.push_back(t.data());
    const int parsed =
        init_threads_from_args(static_cast<int>(argv.size()), argv.data());
    set_default_threads(0);  // never leak an override into other tests
    return parsed;
  };
  EXPECT_EQ(run({"prog", "--threads", "6"}), 6);
  EXPECT_EQ(run({"prog", "--threads=6"}), 6);
  EXPECT_EQ(run({"prog", "--other", "--threads=2", "tail"}), 2);
  EXPECT_EQ(run({"prog"}), 0);
  EXPECT_EQ(run({"prog", "--threads"}), 0);       // value missing
  EXPECT_EQ(run({"prog", "--threads", "0"}), 0);  // rejected, not applied
  EXPECT_EQ(run({"prog", "--threads=九"}), 0);
  EXPECT_EQ(run({"prog", "--threads=4097"}), 0);
  // A rejected token must not stop the scan from finding a later valid one.
  EXPECT_EQ(run({"prog", "--threads=bad", "--threads", "3"}), 3);
}

TEST(RunTrials, InitThreadsFromArgsAppliesDefault) {
  std::vector<std::string> tokens = {"prog", "--threads=5"};
  std::vector<char*> argv;
  for (std::string& t : tokens) argv.push_back(t.data());
  ASSERT_EQ(init_threads_from_args(static_cast<int>(argv.size()), argv.data()),
            5);
  EXPECT_EQ(default_threads(), 5);
  set_default_threads(0);
}

// Rejected --threads values must be reported, not dropped on the floor: a
// bench invoked with "--threads=9999" silently running single-threaded is
// the bug that motivated routing every driver through this parser.
TEST(RunTrials, InitThreadsFromArgsReportsRejectedValuesOnStderr) {
  // Each rejected input with the text its report must quote; a trailing
  // "--threads" with no value is rejected like any other.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"prog", "--threads=4097"}, "4097"}, {{"prog", "--threads"}, "''"}};
  for (auto [tokens, quoted] : cases) {
    std::vector<char*> argv;
    for (std::string& t : tokens) argv.push_back(t.data());
    testing::internal::CaptureStderr();
    EXPECT_EQ(
        init_threads_from_args(static_cast<int>(argv.size()), argv.data()), 0);
    const std::string err = testing::internal::GetCapturedStderr();
    set_default_threads(0);
    EXPECT_NE(err.find(quoted), std::string::npos) << err;
    EXPECT_NE(err.find("--threads"), std::string::npos) << err;
  }
  // A valid flag must stay silent.
  std::vector<std::string> ok_tokens = {"prog", "--threads=2"};
  std::vector<char*> ok_argv;
  for (std::string& t : ok_tokens) ok_argv.push_back(t.data());
  testing::internal::CaptureStderr();
  EXPECT_EQ(init_threads_from_args(static_cast<int>(ok_argv.size()),
                                   ok_argv.data()),
            2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  set_default_threads(0);
}

TEST(RuntimeDeterminism, AvailabilityMonteCarlo) {
  // n = 40 > 24 forces QuorumFamily::availability onto the Monte Carlo
  // path, which runs on the runtime with the process-default thread count.
  const OptDFamily fam(40, 2);
  std::vector<double> values;
  for (const int threads : kThreadCounts) {
    set_default_threads(threads);
    values.push_back(fam.availability(0.3));
  }
  set_default_threads(0);
  EXPECT_EQ(values[0], values[1]);
  EXPECT_EQ(values[0], values[2]);
  EXPECT_GT(values[0], 0.9);  // sanity: OPT_d at p=0.3 is highly available
}

TEST(RuntimeDeterminism, MeasureNonintersection) {
  const OptDFamily fam(20, 2);
  MismatchModel model;
  model.p = 0.1;
  model.link_miss = 0.25;
  std::vector<NonintersectionStats> stats;
  for (const int threads : kThreadCounts) {
    TrialOptions opts;
    opts.threads = threads;
    stats.push_back(
        measure_nonintersection(fam, model, 20000, Rng(77), 1.0, opts));
  }
  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].both_acquired.successes, stats[0].both_acquired.successes);
    EXPECT_EQ(stats[i].both_acquired.trials, stats[0].both_acquired.trials);
    EXPECT_EQ(stats[i].nonintersection.successes,
              stats[0].nonintersection.successes);
  }
  EXPECT_EQ(stats[0].both_acquired.trials, 20000u);
}

TEST(RuntimeDeterminism, MeasureProbes) {
  const OptDFamily fam(64, 2);
  std::vector<ProbeMeasurement> runs;
  for (const int threads : kThreadCounts) {
    TrialOptions opts;
    opts.threads = threads;
    runs.push_back(measure_probes(fam, 0.25, 20000, Rng(9), opts));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    // Bit-identical, including the chunk-order-merged Welford aggregates.
    EXPECT_EQ(runs[i].probes_overall.mean(), runs[0].probes_overall.mean());
    EXPECT_EQ(runs[i].probes_overall.variance(),
              runs[0].probes_overall.variance());
    EXPECT_EQ(runs[i].acquired.successes, runs[0].acquired.successes);
    EXPECT_EQ(runs[i].max_probes_seen, runs[0].max_probes_seen);
    EXPECT_EQ(runs[i].server_probe_frequency, runs[0].server_probe_frequency);
  }
}

TEST(RuntimeDeterminism, WorstCaseProbes) {
  const OptDFamily fam(10, 2);
  std::vector<int> worst;
  for (const int threads : kThreadCounts) {
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 64;
    worst.push_back(worst_case_probes(fam, 1, Rng(3), opts));
  }
  EXPECT_EQ(worst[0], worst[1]);
  EXPECT_EQ(worst[0], worst[2]);
  EXPECT_EQ(worst[0], 10);  // Lemma 29: worst case is n
}

TEST(RuntimeDeterminism, RegisterExperimentReplicates) {
  const OptDFamily fam(12, 2);
  RegisterExperimentConfig config;
  config.num_clients = 4;
  config.duration = 30.0;
  config.think_time = 0.3;
  config.seed = 13;
  std::vector<ReplicatedRegisterResult> sweeps;
  for (const int threads : kThreadCounts) {
    TrialOptions opts;
    opts.threads = threads;
    sweeps.push_back(run_register_experiment_replicated(fam, config, 6, opts));
  }
  for (const ReplicatedRegisterResult& sweep : sweeps)
    ASSERT_EQ(sweep.results.size(), 6u);
  for (std::size_t i = 1; i < sweeps.size(); ++i) {
    for (std::size_t r = 0; r < 6; ++r) {
      EXPECT_EQ(sweeps[i].results[r].reads_ok, sweeps[0].results[r].reads_ok);
      EXPECT_EQ(sweeps[i].results[r].writes_ok, sweeps[0].results[r].writes_ok);
      EXPECT_EQ(sweeps[i].results[r].stale_reads,
                sweeps[0].results[r].stale_reads);
      EXPECT_EQ(sweeps[i].results[r].probes_per_op.mean(),
                sweeps[0].results[r].probes_per_op.mean());
    }
    EXPECT_EQ(sweeps[i].availability.mean(), sweeps[0].availability.mean());
  }
  // Replicates use distinct seeds: not all replicate outcomes may coincide.
  bool any_difference = false;
  for (std::size_t r = 1; r < 6; ++r)
    any_difference |=
        sweeps[0].results[r].reads_ok != sweeps[0].results[0].reads_ok;
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace sqs
