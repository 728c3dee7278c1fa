#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/composition.h"
#include "core/constructions.h"
#include "sim/harness.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "sim/transport.h"
#include "uqs/majority.h"

namespace sqs {
namespace {

// ---- event loop ----

// Records every event it is handed, with the clock at dispatch; an optional
// hook lets an event schedule more.
struct RecordingSink final : SimSink {
  explicit RecordingSink(Simulator* sim) : sim(sim) {}
  void on_event(const SimEvent& ev) override {
    seen.push_back(ev);
    at.push_back(sim->now());
    if (on_seen) on_seen(ev);
  }
  // Schedules an event carrying `value` after `delay`.
  void schedule(double delay, std::uint64_t value) {
    sim->schedule(delay, {.target = this, .value = value});
  }
  std::vector<std::uint64_t> values() const {
    std::vector<std::uint64_t> out;
    for (const SimEvent& ev : seen) out.push_back(ev.value);
    return out;
  }

  Simulator* sim;
  std::vector<SimEvent> seen;
  std::vector<double> at;
  std::function<void(const SimEvent&)> on_seen;
};

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  RecordingSink sink(&sim);
  sink.schedule(2.0, 2);
  sink.schedule(1.0, 1);
  sink.schedule(3.0, 3);
  sim.run();
  EXPECT_EQ(sink.values(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(sink.at, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  // The simulator stamps each event with its time, its scheduling time and
  // its sequence number, and delivers the payload untouched.
  EXPECT_DOUBLE_EQ(sink.seen[0].time, 1.0);
  EXPECT_DOUBLE_EQ(sink.seen[0].sched_at, 0.0);
  EXPECT_EQ(sink.seen[0].seq, 1u);
  EXPECT_EQ(sink.seen[0].target, &sink);
}

TEST(Simulator, EventLoopObservabilityCounters) {
  Simulator sim;
  RecordingSink sink(&sim);
  EXPECT_EQ(sim.scheduled_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.peak_pending_events(), 0u);
  for (int i = 0; i < 4; ++i) sink.schedule(1.0 + i, 0);
  EXPECT_EQ(sim.scheduled_events(), 4u);
  EXPECT_EQ(sim.peak_pending_events(), 4u);  // all queued before any ran
  sim.run_until(2.5);
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 4u);
  EXPECT_EQ(sim.peak_pending_events(), 4u);  // peak is sticky
}

TEST(Simulator, EqualTimestampsRunFifo) {
  Simulator sim;
  RecordingSink sink(&sim);
  for (std::uint64_t i = 0; i < 5; ++i) sink.schedule(1.0, i);
  sim.run();
  EXPECT_EQ(sink.values(), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedSchedulingAndDeadline) {
  Simulator sim;
  RecordingSink sink(&sim);
  sink.on_seen = [&sink](const SimEvent& ev) {
    if (ev.value != 1) return;
    sink.schedule(1.0, 2);     // t=2, within deadline
    sink.schedule(10.0, 100);  // t=11, beyond deadline
  };
  sink.schedule(1.0, 1);
  sim.run_until(5.0);
  EXPECT_EQ(sink.values(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_DOUBLE_EQ(sink.seen[1].sched_at, 1.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

// ---- network (the Transport at explicit times) ----

TEST(Network, StationaryLinkDownRate) {
  NetworkConfig config;
  config.link_mean_up = 9.0;
  config.link_mean_down = 1.0;  // stationary down = 0.1
  Transport net(1, 200, config, Rng(3));
  // Sample link states across time.
  int down = 0, samples = 0;
  double now = 0.0;
  for (int step = 0; step < 50; ++step) {
    now += 5.0;
    for (int s = 0; s < 200; ++s) {
      if (!net.link_up(0, s, now)) ++down;
      ++samples;
    }
  }
  EXPECT_NEAR(static_cast<double>(down) / samples, 0.1, 0.02);
}

TEST(Network, DeliversWithLatencyWhenUp) {
  NetworkConfig config;
  config.link_mean_down = 1e-9;  // effectively never down
  config.link_mean_up = 1e9;
  config.base_latency = 0.05;
  Transport net(1, 1, config, Rng(5));
  const Transport::Delivery d = net.attempt(0, 0, 0.0);
  EXPECT_TRUE(d.delivered);
  EXPECT_GE(d.latency, 0.05);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(Network, PartitionedClientLosesAllLinks) {
  NetworkConfig config;
  config.link_mean_down = 1e-9;
  config.link_mean_up = 1e9;
  Transport net(2, 4, config, Rng(7));
  net.partition_client(0, 0.0, 10.0);
  for (int s = 0; s < 4; ++s) {
    EXPECT_FALSE(net.link_up(0, s, 0.0));
    EXPECT_TRUE(net.link_up(1, s, 0.0));
  }
  EXPECT_FALSE(net.attempt(0, 1, 0.0).delivered);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(Network, BlockLinkIsPerPairAndExpires) {
  NetworkConfig config;
  config.link_mean_down = 1e-9;
  config.link_mean_up = 1e9;
  Transport net(2, 3, config, Rng(9));
  net.block_link(0, 1, 0.0, 5.0);
  EXPECT_TRUE(net.link_up(0, 0, 0.0));
  EXPECT_FALSE(net.link_up(0, 1, 0.0));
  EXPECT_TRUE(net.link_up(0, 2, 0.0));
  EXPECT_TRUE(net.link_up(1, 1, 0.0));  // other client unaffected
  EXPECT_TRUE(net.link_up(0, 1, 6.0));
}

// ---- servers ----

TEST(Replica, StationaryFailureRate) {
  Simulator sim;
  ServerConfig config;
  config.mean_up = 8.0;
  config.mean_down = 2.0;  // stationary p = 0.2
  int down = 0, samples = 0;
  std::vector<Replica> servers;
  Rng rng(11);
  for (int i = 0; i < 100; ++i) servers.emplace_back(i, config, rng.split(i));
  for (int step = 0; step < 40; ++step) {
    sim.run_until(sim.now() + 3.0);
    for (auto& s : servers) {
      if (!s.up(sim.now())) ++down;
      ++samples;
    }
  }
  EXPECT_NEAR(static_cast<double>(down) / samples, 0.2, 0.03);
}

TEST(Timestamp, LexicographicOrdering) {
  // (counter, writer) pairs compare counter-first, writer as tie-break —
  // the standard ABD tag order every monotonicity invariant relies on.
  EXPECT_LT((Timestamp{1, 5}), (Timestamp{2, 0}));
  EXPECT_LT((Timestamp{3, 1}), (Timestamp{3, 2}));
  EXPECT_FALSE((Timestamp{3, 2}) < (Timestamp{3, 2}));
  EXPECT_FALSE((Timestamp{4, 0}) < (Timestamp{3, 9}));
  EXPECT_EQ((Timestamp{3, 2}), (Timestamp{3, 2}));
  EXPECT_FALSE((Timestamp{3, 2}) == (Timestamp{3, 1}));
  // The default tag is below every real write's tag.
  EXPECT_LT(Timestamp{}, (Timestamp{0, 0}));
  EXPECT_LT(Timestamp{}, (Timestamp{1, -1}));
}

TEST(Replica, WriteAdvancesTimestampMonotonically) {
  ServerConfig config;
  config.mean_down = 1e-9;
  config.mean_up = 1e9;
  Replica server(0, config, Rng(13));
  EXPECT_TRUE(server.write(0.0, Timestamp{3, 1}, 30));
  EXPECT_EQ(server.value(), 30u);
  // Older write is acked but not applied.
  EXPECT_TRUE(server.write(0.0, Timestamp{2, 9}, 20));
  EXPECT_EQ(server.value(), 30u);
  // Equal counter, higher writer id wins the lexicographic order.
  EXPECT_TRUE(server.write(0.0, Timestamp{3, 2}, 32));
  EXPECT_EQ(server.value(), 32u);
  const auto read = server.read(0.0);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->second, 32u);
}

// ---- end-to-end register experiments ----

RegisterExperimentConfig reliable_world() {
  RegisterExperimentConfig config;
  config.num_clients = 4;
  config.duration = 300.0;
  config.think_time = 0.5;
  config.network.link_mean_down = 1e-9;
  config.network.link_mean_up = 1e9;
  config.server.mean_down = 1e-9;
  config.server.mean_up = 1e9;
  return config;
}

TEST(RegisterExperiment, PerfectWorldIsFullyAvailableAndConsistent) {
  const OptDFamily fam(12, 2);
  const auto result = run_register_experiment(fam, reliable_world());
  EXPECT_GT(result.reads_attempted + result.writes_attempted, 500);
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.stale_reads, 0);
  // OPT_d with everything up: exactly 2 alpha probes per acquisition.
  EXPECT_NEAR(result.probes_per_op.mean(), 4.0, 0.01);
}

TEST(RegisterExperiment, MajorityBaselinePerfectWorld) {
  const MajorityFamily fam(12);
  const auto result = run_register_experiment(fam, reliable_world());
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.stale_reads, 0);
  EXPECT_NEAR(result.probes_per_op.mean(), 7.0, 0.01);
}

TEST(RegisterExperiment, SqsSurvivesMassServerFailure) {
  // 60% of servers down on average: majority is mostly dead, OPT_d hums.
  RegisterExperimentConfig config = reliable_world();
  config.duration = 400.0;
  config.server.mean_up = 4.0;
  config.server.mean_down = 6.0;  // p = 0.6

  const OptDFamily sqs_family(12, 2);
  const auto sqs_result = run_register_experiment(sqs_family, config);
  const MajorityFamily maj(12);
  const auto maj_result = run_register_experiment(maj, config);

  EXPECT_GT(sqs_result.availability(), 0.95);
  EXPECT_LT(maj_result.availability(), 0.35);
}

TEST(RegisterExperiment, FlakyLinksCauseFewStaleReadsAtHigherAlpha) {
  RegisterExperimentConfig config;
  config.num_clients = 6;
  config.duration = 1500.0;
  config.think_time = 0.3;
  config.server.mean_down = 1e-9;
  config.server.mean_up = 1e9;
  // Aggressively flaky links: ~9% of the time a link is down.
  config.network.link_mean_up = 10.0;
  config.network.link_mean_down = 1.0;

  const auto a1 = run_register_experiment(OptDFamily(12, 1), config);
  const auto a3 = run_register_experiment(OptDFamily(12, 3), config);
  EXPECT_GT(a1.reads_ok, 1000);
  EXPECT_GT(a3.reads_ok, 1000);
  // Higher alpha => quadratically fewer non-intersections => fewer stale
  // reads. (alpha=1 may still be small; require ordering with slack.)
  EXPECT_LE(a3.stale_read_fraction(), a1.stale_read_fraction() + 1e-9);
}

TEST(RegisterExperiment, CompositionFamilyWorksEndToEnd) {
  auto uq = std::make_shared<MajorityFamily>(7);
  const CompositionFamily comp(uq, 16, 2);
  RegisterExperimentConfig config = reliable_world();
  const auto result = run_register_experiment(comp, config);
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.stale_reads, 0);
  // Fast path: majority of 7 = 4 probes.
  EXPECT_NEAR(result.probes_per_op.mean(), 4.0, 0.05);
}

TEST(RegisterExperiment, AmnesiaRecoveryBreaksConsistency) {
  // The guarantees assume crash (state-preserving) failures. With amnesia
  // recovery, rare writes + high churn + alpha=1 produce massive staleness.
  RegisterExperimentConfig config = reliable_world();
  config.duration = 800.0;
  config.read_fraction = 0.97;
  config.server.mean_down = 20.0;
  config.server.mean_up = 20.0 * 0.7 / 0.3;  // p = 0.3

  const OptDFamily fam(15, 1);
  config.server.amnesia_on_recovery = false;
  const auto crash_only = run_register_experiment(fam, config);
  config.server.amnesia_on_recovery = true;
  const auto amnesia = run_register_experiment(fam, config);

  EXPECT_GT(crash_only.reads_ok, 3000);
  // Crash churn alone already causes some staleness at alpha=1 (a reader
  // can land on servers that were down during the write); amnesia multiplies
  // it severalfold.
  EXPECT_GT(amnesia.stale_reads, 5 * crash_only.stale_reads)
      << "crash=" << crash_only.stale_reads
      << " amnesia=" << amnesia.stale_reads;
}

TEST(RegisterExperiment, LatencyPercentilesAreOrdered) {
  const OptDFamily fam(12, 2);
  RegisterExperimentConfig config = reliable_world();
  const auto r = run_register_experiment(fam, config);
  EXPECT_GT(r.latencies_ok.size(), 100u);
  EXPECT_LE(r.latency_percentile(50), r.latency_percentile(99) + 1e-12);
  EXPECT_GT(r.latency_percentile(50), 0.0);
}

TEST(RegisterExperiment, DeterministicAcrossRuns) {
  const OptDFamily fam(10, 2);
  RegisterExperimentConfig config = reliable_world();
  config.duration = 100.0;
  const auto r1 = run_register_experiment(fam, config);
  const auto r2 = run_register_experiment(fam, config);
  EXPECT_EQ(r1.reads_attempted, r2.reads_attempted);
  EXPECT_EQ(r1.writes_ok, r2.writes_ok);
  EXPECT_DOUBLE_EQ(r1.probes_per_op.mean(), r2.probes_per_op.mean());
}

}  // namespace
}  // namespace sqs
