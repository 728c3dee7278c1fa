// Golden outputs of the discrete-event simulator.
//
// The other simulator tests compare a run with a rerun, or one thread count
// with another; these pin five runs to recorded values. Each test folds
// every field of the run's results (doubles as bit patterns) and every
// flight-recorder event into one FNV-1a digest, so a change that moves any
// simulated bit — an event's sequence number, an rng draw, a latency —
// fails here even when it is self-consistent.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/constructions.h"
#include "core/masking.h"
#include "faults/chaos.h"
#include "obs/recorder.h"
#include "sim/harness.h"
#include "sim/store.h"

namespace sqs {
namespace {

// FNV-1a over the little-endian bytes of each folded value.
class Digest {
 public:
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void i64(long x) { u64(static_cast<std::uint64_t>(x)); }
  void f64(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    u64(bits);
  }
  void stat(const RunningStat& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void fold(Digest& d, const RegisterExperimentResult& r) {
  for (long x : {r.reads_attempted, r.reads_ok, r.writes_attempted,
                 r.writes_ok, r.stale_reads, r.ops_filtered, r.client_retries,
                 r.deadline_failures, r.server_ts_regressions,
                 r.read_ts_regressions, r.lost_writes, r.fabricated_reads,
                 r.epoch_transitions, r.view_refreshes, r.epoch_rejects,
                 r.retired_reads, r.stale_views_at_end})
    d.i64(x);
  d.u64(r.net_delivered);
  d.u64(r.net_dropped);
  d.u64(r.server_dropped_requests);
  d.u64(r.events_executed);
  d.u64(r.peak_event_queue);
  d.stat(r.probes_per_op);
  d.stat(r.latency_ok);
  d.u64(r.latencies_ok.size());
  for (double x : r.latencies_ok) d.f64(x);
}

void fold_flights(Digest& d) {
  const std::vector<obs::FlightEvent> events = obs::collect_flight_events();
  ASSERT_EQ(obs::flight_recorder_stats().overwritten, 0u);
  d.u64(events.size());
  for (const obs::FlightEvent& e : events) {
    d.u64(e.run);
    d.u64(e.time_us);
    d.u64(e.op);
    d.u64(static_cast<std::uint64_t>(e.kind));
    d.i64(e.replica);
    d.u64(e.payload);
  }
}

// Turns the flight recorder on with a ring large enough that no golden run
// wraps it, and restores the previous telemetry on exit.
class RecorderOn {
 public:
  RecorderOn() : saved_(obs::current_config()) {
    obs::TelemetryConfig tc = saved_;
    tc.recorder = true;
    tc.flight_events = 1u << 18;
    obs::configure(tc);
    obs::reset_flight_recorder();
  }
  ~RecorderOn() {
    obs::configure(saved_);
    obs::reset_flight_recorder();
  }

 private:
  obs::TelemetryConfig saved_;
};

std::uint64_t register_digest(const QuorumFamily& family,
                              const RegisterExperimentConfig& config,
                              RegisterExperimentResult& r) {
  RecorderOn recorder;
  r = run_register_experiment(family, config);
  EXPECT_GT(r.reads_attempted + r.writes_attempted, 0);
  Digest d;
  fold(d, r);
  fold_flights(d);
  return d.value();
}

std::uint64_t chaos_digest(const QuorumFamily& family,
                           const ChaosScenario& scenario) {
  RecorderOn recorder;
  TrialOptions opts;
  opts.threads = 1;
  const std::vector<ChaosCellResult> cells =
      run_chaos(family, {scenario}, /*replicates=*/1, opts);
  Digest d;
  d.u64(cells.size());
  for (const ChaosCellResult& c : cells) {
    d.u64(c.replicates.size());
    for (const RegisterExperimentResult& r : c.replicates) fold(d, r);
  }
  fold_flights(d);
  return d.value();
}

TEST(SimGolden, DefaultOptDWithFlappingLinks) {
  const OptDFamily family(12, 2);
  RegisterExperimentConfig config;  // default flapping links and replicas
  config.num_clients = 4;
  config.duration = 300.0;
  config.seed = 2024;
  RegisterExperimentResult r;
  EXPECT_EQ(register_digest(family, config, r), 0xf71aa41f84571307ull);
  EXPECT_GT(r.net_dropped, 0u);  // the links really flapped
}

TEST(SimGolden, SelfHealingClient) {
  const OptDFamily family(12, 2);
  RegisterExperimentConfig config;
  config.num_clients = 4;
  config.duration = 300.0;
  config.think_time = 0.5;
  config.network.link_mean_up = 30.0;
  config.client.max_attempts = 3;
  config.client.adaptive_timeout = true;
  config.client.op_deadline = 0.5;
  config.client.use_partition_filter = true;
  config.client.read_repair = true;
  config.partition_rate = 0.05;
  config.seed = 77;
  RegisterExperimentResult r;
  EXPECT_EQ(register_digest(family, config, r), 0x552129b4f3e1eeb5ull);
  // Every self-healing path ran.
  EXPECT_GT(r.client_retries, 0);
  EXPECT_GT(r.ops_filtered, 0);
  EXPECT_GT(r.deadline_failures, 0);
}

TEST(SimGolden, ChurnReplaceChaos) {
  FamilySpec spec;
  spec.kind = "optd";
  spec.n = 12;
  spec.alpha = 2;
  const auto family = spec.make();
  ASSERT_NE(family, nullptr);
  EXPECT_EQ(chaos_digest(*family, churn_replace_chaos_scenario(spec)),
            0x62cfcb9c716c4d03ull);
}

TEST(SimGolden, MaskingThresholdUnderByzantinePlan) {
  const MaskingThresholdFamily family(12, 1);
  const ChaosScenario scenario = byzantine_chaos_scenario(family, 1);
  ASSERT_FALSE(scenario.plan.events.empty());
  EXPECT_EQ(chaos_digest(family, scenario), 0x4641766a43682d30ull);
}

TEST(SimGolden, RotatedStore) {
  StoreExperimentConfig config;
  config.num_servers = 12;
  config.num_objects = 6;
  config.num_clients = 4;
  config.duration = 200.0;
  config.seed = 5;
  RecorderOn recorder;
  const StoreExperimentResult r = run_store_experiment(config);
  ASSERT_GT(r.ops_attempted, 0);
  Digest d;
  for (long x : {r.ops_attempted, r.ops_ok, r.stale_reads, r.reads_ok})
    d.i64(x);
  d.stat(r.probes_per_op);
  d.u64(r.server_probe_fraction.size());
  for (double x : r.server_probe_fraction) d.f64(x);
  fold_flights(d);
  EXPECT_EQ(d.value(), 0x158e23614249e930ull);
}

}  // namespace
}  // namespace sqs
