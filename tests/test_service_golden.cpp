// Golden outputs of the staged service.
//
// The other service tests compare a run with a rerun, or one thread count
// with another; these pin five served runs to recorded values. Each test
// folds the reply fingerprint and every deterministic ServiceResult field
// (doubles as bit patterns; wall_ms is real time and left out) into one
// FNV-1a digest, so a change that moves any served bit — a reply byte, a
// probe count, a latency bucket, a cert reject — fails here even when it is
// self-consistent across thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/constructions.h"
#include "core/masking.h"
#include "faults/chaos.h"
#include "faults/churn.h"
#include "faults/fault_plan.h"
#include "golden_digest.h"
#include "service/load_gen.h"
#include "service/runner.h"

namespace sqs {
namespace {

void fold(Digest& d, const obs::HistogramSnapshot& h) {
  d.u64(h.bounds.size());
  for (std::uint64_t b : h.bounds) d.u64(b);
  d.u64(h.counts.size());
  for (std::uint64_t c : h.counts) d.u64(c);
  d.u64(h.count);
  d.u64(h.sum);
  d.u64(h.min);
  d.u64(h.max);
}

void fold(Digest& d, const ServiceResult& r) {
  for (std::uint64_t x :
       {r.requests, r.decode_failures, r.reads, r.reads_ok, r.writes,
        r.writes_ok, r.stale_reads, r.probes, r.write_acks, r.replica_dropped,
        r.ts_regressions, r.net_delivered, r.net_dropped, r.lost_acked_writes,
        r.cert_rejects, r.fabricated_reads, r.epoch_transitions,
        r.view_refreshes, r.epoch_rejects, r.retired_reads})
    d.u64(x);
  d.i64(r.current_epoch);
  d.i64(r.view_epoch);
  fold(d, r.latency_us);
  d.u64(r.reply_fingerprint);
  d.f64(r.virtual_duration);
}

LoadGenConfig load(double rate, double duration, double read_fraction = 0.8,
                   int num_clients = 64, std::uint64_t seed = 1) {
  LoadGenConfig l;
  l.rate = rate;
  l.duration = duration;
  l.read_fraction = read_fraction;
  l.num_clients = num_clients;
  l.seed = seed;
  return l;
}

// sqs_cli serve's defaults: 64 clients, 0.25 s probe timeout, batch 256.
ServiceConfig served(const LoadGenConfig& l) {
  ServiceConfig config;
  config.num_clients = l.num_clients;
  config.probe_timeout = 0.25;
  config.batch = 256;
  config.seed = l.seed;
  return config;
}

std::uint64_t serve_digest(const QuorumFamily& family,
                           const ServiceConfig& config, const LoadGenConfig& l,
                           ServiceResult& r) {
  ServiceRunner runner(family, config);
  r = runner.serve(generate_load(l));
  EXPECT_EQ(r.requests, l.total_ops());
  EXPECT_EQ(r.decode_failures, 0u);
  Digest d;
  fold(d, r);
  return d.value();
}

TEST(ServiceGolden, DefaultOptDAt750) {
  const OptDFamily family(12, 2);
  const LoadGenConfig l = load(750.0, 20.0);
  ServiceResult r;
  EXPECT_EQ(serve_digest(family, served(l), l, r), 0x4148d5f6666d6bd1ull);
  EXPECT_EQ(r.fabricated_reads, 0u);
}

TEST(ServiceGolden, PartitionPlan) {
  const OptDFamily family(12, 2);
  const LoadGenConfig l = load(500.0, 10.0);
  ServiceConfig config = served(l);
  config.plan.server_partition(3.0, 0, 3.0);
  ServiceResult r;
  EXPECT_EQ(serve_digest(family, config, l, r), 0x4bd169e2330363e4ull);
  EXPECT_EQ(r.lost_acked_writes, 0u);
}

TEST(ServiceGolden, MaskingThresholdUnderByzantinePlan) {
  // One liar cycles kWrongValue, kEquivocate, kStaleTs and kFabricateAck;
  // replica certs and the b+1 vote keep every fabrication out.
  const MaskingThresholdFamily family(12, 1);
  const LoadGenConfig l = load(200.0, 40.0, 0.5);
  ServiceConfig config = served(l);
  config.plan = make_byzantine_plan(12, 1, 4.0, 32.0);
  config.lie_tolerance = family.masking_b();
  ServiceResult r;
  EXPECT_EQ(serve_digest(family, config, l, r), 0x1a2233f4fa8c57c4ull);
  EXPECT_GT(r.cert_rejects, 0u);
  EXPECT_EQ(r.fabricated_reads, 0u);
}

TEST(ServiceGolden, ChurnReplace) {
  FamilySpec spec;
  spec.kind = "majority";
  spec.n = 12;
  const auto family = spec.make();
  ASSERT_NE(family, nullptr);
  const ChaosScenario scenario = churn_replace_chaos_scenario(spec);
  const LoadGenConfig l =
      load(100.0, scenario.config.duration, scenario.config.read_fraction,
           scenario.config.num_clients, scenario.config.seed);
  ServiceConfig config = served(l);
  config.network = scenario.config.network;
  config.server = scenario.config.server;
  static_cast<RegisterProtocolConfig&>(config) = scenario.config.client;
  config.plan = scenario.plan;
  config.epochs =
      build_epoch_schedule(scenario.churn, family_factory(spec), 12);
  ASSERT_NE(config.epochs, nullptr);
  ServiceResult r;
  EXPECT_EQ(serve_digest(*family, config, l, r), 0xc8368855eda63886ull);
  EXPECT_EQ(r.epoch_transitions, 3u);
  EXPECT_EQ(r.lost_acked_writes, 0u);
}

TEST(ServiceGolden, AmnesiaOnRecovery) {
  // Replicas that lose their register on every recovery: the cell wipe
  // shows as reads served below the replica's high-water mark.
  const OptDFamily family(12, 2);
  const LoadGenConfig l = load(200.0, 60.0);
  ServiceConfig config = served(l);
  config.server.mean_up = 10.0;
  config.server.mean_down = 1.0;
  config.server.amnesia_on_recovery = true;
  ServiceResult r;
  EXPECT_EQ(serve_digest(family, config, l, r), 0x5143eb993f75d8feull);
  EXPECT_GT(r.ts_regressions, 0u);
}

}  // namespace
}  // namespace sqs
