// The register protocol's shared pieces: the reply tally the simulator and
// the service both decide reads and writes with, and the once-per-run
// publication of replica counts (sim.server.* from the harness,
// service.replica.* per serve() call).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/constructions.h"
#include "core/masking.h"
#include "faults/fault_plan.h"
#include "obs/telemetry.h"
#include "service/load_gen.h"
#include "service/runner.h"
#include "sim/harness.h"

namespace sqs {
namespace {

// --- ReplyTally -------------------------------------------------------------

TEST(ReplyTally, SamePairFromRetiredAndLiveReplica) {
  ReplyTally tally;
  tally.reset(3);
  tally.add(0, Timestamp{2, 1}, 20, /*from_retired=*/false);
  tally.add(1, Timestamp{1, 0}, 10, /*from_retired=*/false);
  tally.add(2, Timestamp{2, 1}, 20, /*from_retired=*/true);
  // The live replica at index 0 carries the adopted pair too, but a retired
  // replica vouching for it still makes the read a retired read.
  for (const int b : {0, 1}) {
    const ReplyTally::Decision d = tally.decide(b);
    ASSERT_TRUE(d.ok) << "b=" << b;
    EXPECT_EQ(d.ts, (Timestamp{2, 1}));
    EXPECT_EQ(d.value, 20u);
    EXPECT_EQ(d.retired_index, 2);
  }
  // A retired replica holding an older pair does not taint the read.
  tally.reset(2);
  tally.add(0, Timestamp{2, 1}, 20, false);
  tally.add(1, Timestamp{1, 0}, 10, true);
  EXPECT_EQ(tally.decide(0).retired_index, -1);
}

TEST(ReplyTally, UnwrittenRegister) {
  ReplyTally tally;
  tally.reset(4);
  tally.add(1, Timestamp{}, 0);
  tally.add(3, Timestamp{}, 0);
  for (const int b : {0, 1}) {
    const ReplyTally::Decision d = tally.decide(b);
    ASSERT_TRUE(d.ok) << "b=" << b;
    EXPECT_EQ(d.ts, Timestamp{});
    EXPECT_EQ(d.value, 0u);
    EXPECT_EQ(d.retired_index, -1);
  }
  // Two unwritten replies cannot vouch for anything with b = 2.
  EXPECT_FALSE(tally.decide(2).ok);
  // A write grows from the unwritten tag: its counter starts at 1.
  EXPECT_EQ(tally.decide(0).ts.counter + 1, 1u);
}

TEST(ReplyTally, BDistinctLiarsNeverReachBPlusOne) {
  constexpr int kB = 2;
  const Timestamp truth{3, 0};
  ReplyTally tally;
  tally.reset(5);
  // The head of the probe order lies (adversarial placement); each liar's
  // fabrication is unique to it.
  for (int liar = 0; liar < kB; ++liar)
    tally.add(liar, fabricated_timestamp(liar, truth),
              fabricated_value(liar, truth, 30));
  // Only b honest replies: nothing reaches b+1 vouchers, so the op fails
  // instead of adopting a fabrication.
  tally.add(2, truth, 30);
  tally.add(3, truth, 30);
  EXPECT_FALSE(tally.decide(kB).ok);
  // The unprotected fold is fooled by the boosted timestamp.
  EXPECT_GE(tally.decide(0).ts.counter, kLieCounterBoost);
  // One more honest voucher and the truth wins.
  tally.add(4, truth, 30);
  const ReplyTally::Decision d = tally.decide(kB);
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.ts, truth);
  EXPECT_EQ(d.value, 30u);
}

TEST(ReplyTally, StaleTsLiar) {
  ReplyTally tally;
  tally.reset(3);
  tally.add(0, Timestamp{}, 0);  // kStaleTs: pretends never written
  tally.add(1, Timestamp{5, 1}, 50);
  // One honest voucher is not enough for b = 1, and the stale pretense has
  // no second voucher either.
  EXPECT_FALSE(tally.decide(1).ok);
  tally.add(2, Timestamp{5, 1}, 50);
  for (const int b : {0, 1}) {
    const ReplyTally::Decision d = tally.decide(b);
    ASSERT_TRUE(d.ok) << "b=" << b;
    EXPECT_EQ(d.ts, (Timestamp{5, 1}));
    EXPECT_EQ(d.value, 50u);
  }
}

TEST(ReplyTally, EqualTimestampsFoldInIndexOrder) {
  // Two replies with an equal timestamp and different values (impossible
  // for honest replicas): the lowest family index wins, whatever order the
  // replies arrived in.
  ReplyTally tally;
  tally.reset(3);
  tally.add(2, Timestamp{4, 0}, 42);
  tally.add(1, Timestamp{4, 0}, 41);
  EXPECT_EQ(tally.decide(0).value, 41u);
}

TEST(ReplyTally, ResetForgetsTheLastAcquisition) {
  ReplyTally tally;
  tally.reset(4);
  tally.add(1, Timestamp{7, 0}, 70, true);
  tally.reset(3);
  EXPECT_EQ(tally.size(), 3);
  for (int i = 0; i < tally.size(); ++i) EXPECT_FALSE(tally.reached(i));
  const ReplyTally::Decision d = tally.decide(0);
  EXPECT_EQ(d.ts, Timestamp{});
  EXPECT_EQ(d.retired_index, -1);
}

// --- once-per-run publication of replica counts ------------------------------

// Turns metrics on for one test and restores the previous config on exit.
class MetricsScope {
 public:
  MetricsScope() : saved_(obs::current_config()) {
    obs::TelemetryConfig tc = saved_;
    tc.metrics = true;
    obs::configure(tc);
  }
  ~MetricsScope() { obs::configure(saved_); }

 private:
  obs::TelemetryConfig saved_;
};

struct CounterReading {
  std::uint64_t dropped = 0, regressions = 0, lies = 0;
};

CounterReading read_counters(const std::string& prefix) {
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  return {snap.counter(prefix + ".dropped_requests"),
          snap.counter(prefix + ".ts_regressions"),
          snap.counter(prefix + ".lies_told")};
}

// Flapping replicas that forget their state on recovery (drops and
// timestamp regressions) plus one liar (lies).
ServerConfig faulty_server() {
  ServerConfig server;
  server.mean_up = 20.0;
  server.mean_down = 2.0;
  server.amnesia_on_recovery = true;
  return server;
}

TEST(ReplicaCounts, HarnessPublishesEachRunsFleetCounts) {
  MetricsScope metrics;
  const MaskingThresholdFamily family(9, 1);
  RegisterExperimentConfig config;
  config.num_clients = 4;
  config.duration = 120.0;
  config.think_time = 0.3;
  config.server = faulty_server();
  config.client.lie_tolerance = family.masking_b();
  config.seed = 11;

  config.plan = make_byzantine_plan(9, 1, 10.0, 80.0);

  const CounterReading before = read_counters("sim.server");
  TrialOptions opts;
  opts.threads = 2;
  const ReplicatedRegisterResult runs =
      run_register_experiment_replicated(family, config, 3, opts);
  const CounterReading after = read_counters("sim.server");

  // Each replicate's result carries its fleet's end-of-run counts.
  ReplicaCounts fleet;
  for (const RegisterExperimentResult& r : runs.results) {
    fleet.dropped_requests += r.server_dropped_requests;
    fleet.ts_regressions += static_cast<std::uint64_t>(r.server_ts_regressions);
    fleet.lies_told += r.lies_told;
  }
  ASSERT_GT(fleet.dropped_requests, 0u);
  ASSERT_GT(fleet.ts_regressions, 0u);
  ASSERT_GT(fleet.lies_told, 0u);
  EXPECT_EQ(after.dropped - before.dropped, fleet.dropped_requests);
  EXPECT_EQ(after.regressions - before.regressions, fleet.ts_regressions);
  EXPECT_EQ(after.lies - before.lies, fleet.lies_told);
}

TEST(ReplicaCounts, HarnessPublishesEachRunsTransportTotals) {
  MetricsScope metrics;
  const OptDFamily family(9, 2);
  RegisterExperimentConfig config;
  config.num_clients = 4;
  config.duration = 120.0;
  config.think_time = 0.3;
  config.network.link_mean_up = 10.0;  // flaky links: drops as well
  config.seed = 12;
  const auto read_net = [] {
    const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
    return std::make_pair(snap.counter("sim.net.delivered"),
                          snap.counter("sim.net.dropped"));
  };

  const auto before = read_net();
  TrialOptions opts;
  opts.threads = 2;
  const ReplicatedRegisterResult runs =
      run_register_experiment_replicated(family, config, 3, opts);
  const auto after = read_net();

  std::uint64_t delivered = 0, dropped = 0;
  for (const RegisterExperimentResult& r : runs.results) {
    delivered += r.net_delivered;
    dropped += r.net_dropped;
  }
  ASSERT_GT(delivered, 0u);
  ASSERT_GT(dropped, 0u);
  EXPECT_EQ(after.first - before.first, delivered);
  EXPECT_EQ(after.second - before.second, dropped);
}

TEST(ReplicaCounts, ServePublishesEachCallsDelta) {
  MetricsScope metrics;
  const MaskingThresholdFamily family(9, 1);
  ServiceConfig config;
  config.num_clients = 16;
  config.batch = 64;
  config.seed = 7;
  config.server = faulty_server();
  config.plan = make_byzantine_plan(9, 1, 0.5, 6.0);
  config.lie_tolerance = family.masking_b();
  LoadGenConfig load;
  load.rate = 500.0;
  load.duration = 4.0;
  load.num_clients = 16;
  load.seed = 7;
  ServiceRunner runner(family, config);

  ReplicaCounts published;
  for (int call = 0; call < 2; ++call) {
    load.seed = 7 + static_cast<std::uint64_t>(call);
    const CounterReading before = read_counters("service.replica");
    runner.serve(generate_load(load));
    const CounterReading after = read_counters("service.replica");
    ReplicaCounts fleet;
    for (int i = 0; i < runner.num_servers(); ++i) {
      const ReplicaCounts& c = runner.replica(i).counts();
      fleet.dropped_requests += c.dropped_requests;
      fleet.ts_regressions += c.ts_regressions;
      fleet.lies_told += c.lies_told;
    }
    EXPECT_EQ(after.dropped - before.dropped,
              fleet.dropped_requests - published.dropped_requests)
        << "call " << call;
    EXPECT_EQ(after.regressions - before.regressions,
              fleet.ts_regressions - published.ts_regressions)
        << "call " << call;
    EXPECT_EQ(after.lies - before.lies,
              fleet.lies_told - published.lies_told)
        << "call " << call;
    published = fleet;
  }
  EXPECT_GT(published.dropped_requests, 0u);
  EXPECT_GT(published.lies_told, 0u);
}

}  // namespace
}  // namespace sqs
