// The sans-I/O register operation and audit both drivers share, and the
// cross-driver differential: one SimClient read and write against one
// ServiceRunner::serve per request over the same world must decide the
// same and record the same ordered (kind, replica) flights.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/constructions.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "service/message.h"
#include "service/runner.h"
#include "sim/client.h"
#include "sim/register_op.h"

namespace sqs {
namespace {

// Enables the flight recorder for one test and restores the previous
// config, with clean rings, on exit.
class RecorderScope {
 public:
  RecorderScope() : saved_(obs::current_config()) {
    obs::TelemetryConfig tc = saved_;
    tc.recorder = true;
    obs::configure(tc);
    obs::reset_flight_recorder();
  }
  ~RecorderScope() {
    obs::configure(saved_);
    obs::reset_flight_recorder();
  }

 private:
  obs::TelemetryConfig saved_;
};

using Flight = std::tuple<obs::FlightKind, std::int32_t, std::uint64_t>;

// Every recorded (kind, replica, payload) of `op`, in collection order.
std::vector<Flight> flights_of(obs::OpId op) {
  std::vector<Flight> out;
  for (const obs::FlightEvent& e : obs::collect_flight_events())
    if (e.op == op) out.emplace_back(e.kind, e.replica, e.payload);
  return out;
}

// --- RegisterOp ---------------------------------------------------------------

// Probes 0, 1, 2, ... in order; acquires once `need` probes were answered
// with data and gives up once too few servers remain.
class ScriptStrategy : public ProbeStrategy {
 public:
  ScriptStrategy(int n, int need) : n_(n), need_(need) {}
  void reset(Rng*) override { next_ = reached_ = 0; }
  int universe_size() const override { return n_; }
  ProbeStatus status() const override {
    if (reached_ >= need_) return ProbeStatus::kAcquired;
    if (reached_ + (n_ - next_) < need_) return ProbeStatus::kNoQuorum;
    return ProbeStatus::kInProgress;
  }
  int next_server() const override { return next_; }
  void observe(int, bool reached) override {
    ++next_;
    reached_ += reached ? 1 : 0;
  }
  SignedSet acquired_quorum() const override { return SignedSet(n_); }
  bool is_adaptive() const override { return false; }
  bool is_randomized() const override { return false; }

 private:
  int n_, need_, next_ = 0, reached_ = 0;
};

enum class Outcome { kReply, kFence, kMiss };

struct Step {
  Outcome outcome;
  Timestamp ts = {};
  std::uint64_t value = 0;
  int epoch = 0;  // the answering replica's epoch stamp
  bool retired = false;
};

struct OpCase {
  std::string name = {};
  bool filtered = false;  // the partition filter aborted the attempt
  bool with_view = false;  // epoch mode: view {5, 6, 7} at epoch 0
  int lie_tolerance = 0;
  bool refresh_views = true;
  int max_view_fetches = 4;
  int earlier_fetches = 0;  // view fetches this op already made
  int current_epoch = 0;
  std::vector<Step> steps = {};
  // Expectations.
  int probes = 0;
  bool decided = false;
  Timestamp ts = {};
  std::uint64_t value = 0;
  int retired_replica = -1;
  bool fetch = false;
  bool learn = false;
  std::vector<Flight> flights = {};
};

constexpr std::uint64_t kRtt = 7, kSpent = 250;
constexpr auto kProbe = obs::FlightKind::kProbe;
constexpr auto kMiss = obs::FlightKind::kProbeMiss;
constexpr auto kFenced = obs::FlightKind::kEpochFenced;
constexpr auto kRefresh = obs::FlightKind::kViewRefresh;
constexpr auto kAcquired = obs::FlightKind::kQuorumAcquired;
constexpr auto kFailed = obs::FlightKind::kQuorumFailed;

std::vector<OpCase> op_cases() {
  const Step miss{Outcome::kMiss};
  const Step fence{Outcome::kFence, {}, 0, /*epoch=*/1};
  std::vector<OpCase> cases;
  {
    OpCase c{"classic_read_adopts_the_max_timestamp"};
    c.steps = std::vector<Step>{{Outcome::kReply, {1, 0}, 10},
                                {Outcome::kReply, {2, 1}, 20}};
    c.probes = 2;
    c.decided = true;
    c.ts = {2, 1};
    c.value = 20;
    c.flights = {{kProbe, 0, kRtt}, {kProbe, 1, kRtt}, {kAcquired, -1, 2}};
    cases.push_back(c);
  }
  {
    OpCase c{"miss_is_negative_evidence"};
    c.steps = std::vector<Step>{miss, {Outcome::kReply, {3, 0}, 30},
                                {Outcome::kReply, {}, 0}};
    c.probes = 3;
    c.decided = true;
    c.ts = {3, 0};
    c.value = 30;
    c.flights = {{kMiss, 0, kSpent}, {kProbe, 1, kRtt}, {kProbe, 2, kRtt},
                 {kAcquired, -1, 3}};
    cases.push_back(c);
  }
  {
    OpCase c{"masking_vote_without_b_plus_one_vouchers_fails"};
    c.lie_tolerance = 1;
    c.steps = std::vector<Step>{{Outcome::kReply, {9, 2}, 90},
                                {Outcome::kReply, {1, 0}, 10}};
    c.probes = 2;
    c.flights = {{kProbe, 0, kRtt}, {kProbe, 1, kRtt}, {kAcquired, -1, 2}};
    cases.push_back(c);
  }
  {
    OpCase c{"newer_epoch_stamp_on_a_failed_attempt_fetches_the_view"};
    c.with_view = true;
    c.current_epoch = 1;
    c.steps = std::vector<Step>{{Outcome::kReply, {1, 0}, 10, /*epoch=*/1},
                                miss, miss};
    c.probes = 3;
    c.fetch = true;
    c.learn = true;
    c.flights = {{kProbe, 5, kRtt}, {kMiss, 6, kSpent}, {kMiss, 7, kSpent},
                 {kRefresh, -1, 1}, {kFailed, -1, 3}};
    cases.push_back(c);
  }
  {
    OpCase c{"same_epoch_stamp_is_no_evidence"};
    c.with_view = true;
    c.current_epoch = 1;
    c.steps = std::vector<Step>{{Outcome::kReply, {1, 0}, 10, /*epoch=*/0},
                                miss, miss};
    c.probes = 3;
    c.flights = {{kProbe, 5, kRtt}, {kMiss, 6, kSpent}, {kMiss, 7, kSpent},
                 {kFailed, -1, 3}};
    cases.push_back(c);
  }
  {
    OpCase c{"fence_on_an_acquired_attempt_learns_for_the_next_op"};
    c.with_view = true;
    c.current_epoch = 1;
    c.steps = std::vector<Step>{fence, {Outcome::kReply, {2, 0}, 20},
               {Outcome::kReply, {2, 0}, 20, 0, /*retired=*/true}};
    c.probes = 3;
    c.decided = true;
    c.ts = {2, 0};
    c.value = 20;
    c.retired_replica = 7;
    c.learn = true;
    c.flights = {{kFenced, 5, 1}, {kProbe, 6, kRtt}, {kProbe, 7, kRtt},
                 {kRefresh, -1, 1}, {kAcquired, -1, 3}};
    cases.push_back(c);
  }
  {
    OpCase c{"fetch_bound_spent"};
    c.with_view = true;
    c.current_epoch = 1;
    c.max_view_fetches = 1;
    c.earlier_fetches = 1;
    c.steps = std::vector<Step>{fence, fence};
    c.probes = 2;
    c.learn = true;
    c.flights = {{kRefresh, -1, 1}, {kFenced, 5, 1}, {kFenced, 6, 1},
                 {kRefresh, -1, 1}, {kFailed, -1, 2}};
    cases.push_back(c);
  }
  {
    OpCase c{"refresh_views_off_never_fetches_or_learns"};
    c.with_view = true;
    c.current_epoch = 1;
    c.refresh_views = false;
    c.steps = std::vector<Step>{fence, fence};
    c.probes = 2;
    c.flights = {{kFenced, 5, 1}, {kFenced, 6, 1}, {kFailed, -1, 2}};
    cases.push_back(c);
  }
  {
    OpCase c{"filtered_attempt_probes_nothing"};
    c.with_view = true;
    c.current_epoch = 1;
    c.filtered = true;
    c.flights = {{kFailed, -1, 0}};
    cases.push_back(c);
  }
  return cases;
}

TEST(RegisterOp, ScriptedOutcomes) {
  const MembershipView view{0, {5, 6, 7}};
  for (const OpCase& c : op_cases()) {
    SCOPED_TRACE(c.name);
    RecorderScope recorder;
    RegisterProtocolConfig config;
    config.lie_tolerance = c.lie_tolerance;
    config.refresh_views = c.refresh_views;
    config.max_view_fetches = c.max_view_fetches;
    RegisterOp op(config);
    ScriptStrategy strategy(3, 2);
    const obs::OpId id = obs::make_op_id(9, 1);
    op.start(id);
    // Earlier fetches happen between attempts, before this one's probes.
    for (int f = 0; f < c.earlier_fetches; ++f) op.note_view_fetch(0, 1);
    op.begin_attempt(c.filtered ? nullptr : &strategy, nullptr,
                     c.with_view ? &view : nullptr);
    std::uint64_t now = 10;
    for (const Step& s : c.steps) {
      ASSERT_TRUE(op.probing());
      const RegisterOp::Probe p = op.next();
      EXPECT_EQ(p.replica, op.replica(p.index));
      switch (s.outcome) {
        case Outcome::kReply:
          op.reply(p, now, kRtt, s.ts, s.value, s.retired, s.epoch);
          break;
        case Outcome::kFence: op.fence(p, now, s.epoch); break;
        case Outcome::kMiss: op.miss(p, now, kSpent); break;
      }
      now += 10;
    }
    EXPECT_FALSE(op.probing());
    EXPECT_EQ(op.num_probes(), c.probes);
    const ReplyTally::Decision d = op.decide();
    EXPECT_EQ(d.ok, c.decided);
    if (c.decided) {
      EXPECT_EQ(d.ts, c.ts);
      EXPECT_EQ(d.value, c.value);
      EXPECT_EQ(d.retired_index < 0 ? -1 : op.replica(d.retired_index),
                c.retired_replica);
    }
    EXPECT_EQ(op.should_fetch_view(c.current_epoch, 0), c.fetch);
    EXPECT_EQ(op.finish(now, c.current_epoch, 0), c.learn);
    EXPECT_EQ(flights_of(id), c.flights);
  }
}

TEST(RegisterOp, ViewFetchBoundCountsEveryFetchOfTheOp) {
  const MembershipView view{0, {5, 6, 7}};
  RegisterProtocolConfig config;
  config.max_view_fetches = 2;
  RegisterOp op(config);
  ScriptStrategy strategy(3, 2);
  op.start(obs::make_op_id(9, 2));
  for (int attempt = 0; attempt < 3; ++attempt) {
    op.begin_attempt(&strategy, nullptr, &view);
    while (op.probing()) op.fence(op.next(), 0, 1);
    if (attempt < 2) {
      ASSERT_TRUE(op.should_fetch_view(1, 0)) << "attempt " << attempt;
      op.note_view_fetch(0, 1);
    }
  }
  EXPECT_FALSE(op.should_fetch_view(1, 0));
  EXPECT_EQ(op.num_probes(), 6);
  // A new op gets a fresh bound.
  op.start(obs::make_op_id(9, 3));
  op.begin_attempt(&strategy, nullptr, &view);
  while (op.probing()) op.fence(op.next(), 0, 1);
  EXPECT_TRUE(op.should_fetch_view(1, 0));
  EXPECT_EQ(op.num_probes(), 2);
  // A driver that already learned the current view does not fetch it.
  EXPECT_FALSE(op.should_fetch_view(1, 1));
}

TEST(RegisterOp, ProtocolConfigRejectsNan) {
  testing::internal::CaptureStderr();
  RegisterProtocolConfig config;
  EXPECT_TRUE(config.validate("test"));
  config.view_fetch_delay = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.validate("test"));
  config = {};
  config.probe_timeout = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.validate("test"));
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "test: invalid probe_timeout"),
            std::string::npos);
}

// --- RegisterAudit ------------------------------------------------------------

TEST(RegisterAudit, UnwrittenRegisterIsGenuine) {
  RegisterAudit audit;
  EXPECT_TRUE(audit.genuine(Timestamp{}, 0));
  EXPECT_TRUE(audit.genuine(Timestamp{}, 123));  // the stale-ts pretense
  EXPECT_FALSE(audit.genuine(Timestamp{1, 0}, 5));
  audit.record_write(Timestamp{1, 0}, 5, /*acked=*/false, 1.0);
  EXPECT_TRUE(audit.genuine(Timestamp{1, 0}, 5));
  EXPECT_FALSE(audit.genuine(Timestamp{1, 0}, 6));  // same tag, other value
  EXPECT_FALSE(audit.genuine(Timestamp{1, 1}, 5));  // same value, other writer
}

TEST(RegisterAudit, FrontierPopsWritesByCompletionTime) {
  RegisterAudit audit;
  audit.record_write(Timestamp{3, 0}, 30, true, 5.0);
  audit.record_write(Timestamp{1, 0}, 10, true, 2.0);
  audit.record_write(Timestamp{2, 1}, 20, false, 8.0);
  EXPECT_EQ(audit.frontier(1.0), Timestamp{});
  EXPECT_EQ(audit.frontier(2.0), (Timestamp{1, 0}));  // completes at 2.0
  EXPECT_EQ(audit.frontier(6.0), (Timestamp{3, 0}));
  // A later completion with a lower tag never lowers the frontier.
  EXPECT_EQ(audit.frontier(9.0), (Timestamp{3, 0}));
  // Only acked writes raise the acked high-water mark.
  EXPECT_EQ(audit.max_acked(), (Timestamp{3, 0}));
}

TEST(RegisterAudit, LostAckedWriteIgnoresRetiredReplicas) {
  std::vector<Replica> fleet;
  for (int i = 0; i < 3; ++i)
    fleet.emplace_back(i, ServerConfig{}, Rng(10 + static_cast<std::uint64_t>(i)));
  RegisterAudit audit;
  EXPECT_FALSE(audit.lost_acked_write(fleet));  // nothing acked yet
  audit.record_write(Timestamp{2, 0}, 20, /*acked=*/false, 1.0);
  EXPECT_FALSE(audit.lost_acked_write(fleet));  // unacked writes may vanish
  audit.record_write(Timestamp{3, 0}, 30, /*acked=*/true, 2.0);
  EXPECT_TRUE(audit.lost_acked_write(fleet));
  fleet[0].adopt_state(Timestamp{3, 0}, 30);
  EXPECT_FALSE(audit.lost_acked_write(fleet));
  // State held only by a retired replica is lost to every future quorum.
  fleet[0].set_member(false);
  EXPECT_TRUE(audit.lost_acked_write(fleet));
  fleet[2].adopt_state(Timestamp{4, 1}, 40);  // newer state also covers it
  EXPECT_FALSE(audit.lost_acked_write(fleet));
}

// --- the cross-driver differential ------------------------------------------

constexpr int kCrashed = 1;
constexpr int kLiar = 0;
constexpr double kForever = 1e9;

NetworkConfig steady_network() {
  NetworkConfig config;
  config.link_mean_up = 1e12;  // links never flap
  return config;
}

ServerConfig steady_server() {
  ServerConfig config;
  config.mean_up = 1e12;  // only the forced crash takes a replica down
  return config;
}

// The op's flights both drivers record, as ordered (kind, replica). The
// runner's decode/encode stages have no sim twin, and its op-done event and
// synchronous audit flights are the harness's in the simulator.
std::vector<std::pair<obs::FlightKind, std::int32_t>> protocol_flights(
    obs::OpId op) {
  std::vector<std::pair<obs::FlightKind, std::int32_t>> out;
  for (const auto& [kind, replica, payload] : flights_of(op)) {
    switch (kind) {
      case obs::FlightKind::kDecoded:
      case obs::FlightKind::kEncoded:
      case obs::FlightKind::kOpDone:
      case obs::FlightKind::kStaleRead:
      case obs::FlightKind::kFabricatedRead: break;
      default: out.emplace_back(kind, replica);
    }
  }
  return out;
}

std::vector<std::uint8_t> one_request(std::uint64_t seq, OpKind kind,
                                      std::uint64_t value,
                                      std::uint64_t arrival_us) {
  Request req;
  req.seq = seq;
  req.kind = kind;
  req.value = value;
  req.client = 0;
  req.arrival_us = arrival_us;
  req.cert = request_cert(req);
  std::vector<std::uint8_t> wire(kRequestWireSize);
  encode_request(req, wire.data());
  return wire;
}

Reply serve_one(ServiceRunner& runner, const std::vector<std::uint8_t>& req) {
  std::vector<std::uint8_t> wire;
  runner.serve(req, &wire);
  Reply rep;
  EXPECT_TRUE(decode_reply(wire.data(), &rep));
  return rep;
}

TEST(DriverDifferential, SimClientAndServiceRunnerDecideAndProbeAlike) {
  const OptDFamily family(12, 2);
  constexpr std::uint64_t kValue = 77;
  RecorderScope recorder;

  // The simulator: one client, one read, then one write.
  Simulator sim;
  Transport net(1, 12, steady_network(), Rng(3));
  std::vector<Replica> servers;
  for (int i = 0; i < 12; ++i)
    servers.emplace_back(i, steady_server(),
                         Rng(100 + static_cast<std::uint64_t>(i)));
  servers[kCrashed].force_crash(0.0, kForever);
  servers[kLiar].set_lie(LieMode::kWrongValue, 0.0, kForever);
  SimClient client(&sim, &net, &servers, 0, &family, ClientConfig{}, Rng(5));
  ReadResult sim_read;
  WriteResult sim_write;
  client.read([&](ReadResult r) { sim_read = std::move(r); });
  sim.run();
  client.write(kValue, [&](WriteResult w) { sim_write = std::move(w); });
  sim.run();

  // The service: the same world, one request per serve() call.
  ServiceConfig config;
  config.network = steady_network();
  config.server = steady_server();
  config.num_clients = 1;
  config.verify_replica_certs = false;  // the liar's replies join the quorum
  config.plan.events = {
      {FaultEvent::Kind::kServerCrash, 0.0, kForever, kCrashed},
      {FaultEvent::Kind::kLieWrongValue, 0.0, kForever, kLiar}};
  ServiceRunner runner(family, config);
  const Reply served_read =
      serve_one(runner, one_request(0, OpKind::kRead, 0, 1000));
  const Reply served_write =
      serve_one(runner, one_request(1, OpKind::kWrite, kValue, 2000000));

  // Same decisions: the unvoted fold adopts the liar's fabrication, and the
  // write grows its tag from it.
  ASSERT_TRUE(sim_read.ok);
  ASSERT_TRUE(served_read.ok);
  EXPECT_GE(sim_read.timestamp.counter, kLieCounterBoost);
  EXPECT_EQ(served_read.ts, sim_read.timestamp);
  EXPECT_EQ(served_read.value, sim_read.value);
  ASSERT_TRUE(sim_write.ok);
  ASSERT_TRUE(served_write.ok);
  EXPECT_EQ(served_write.ts, sim_write.timestamp);
  EXPECT_EQ(served_write.ts, (Timestamp{sim_read.timestamp.counter + 1, 0}));
  EXPECT_EQ(served_read.probes, static_cast<std::uint32_t>(sim_read.num_probes));
  EXPECT_EQ(served_write.probes,
            static_cast<std::uint32_t>(sim_write.num_probes));

  // Same flights, in the same order.
  const auto sim_read_flights = protocol_flights(obs::make_op_id(1, 0));
  const auto sim_write_flights = protocol_flights(obs::make_op_id(1, 1));
  EXPECT_EQ(protocol_flights(obs::make_op_id(obs::kServiceStream, 0)),
            sim_read_flights);
  EXPECT_EQ(protocol_flights(obs::make_op_id(obs::kServiceStream, 1)),
            sim_write_flights);
  // The world was exercised: the crashed replica was missed, the liar
  // reached, and the write pushed to every reached replica.
  const std::pair<obs::FlightKind, std::int32_t> missed{
      obs::FlightKind::kProbeMiss, kCrashed};
  const std::pair<obs::FlightKind, std::int32_t> lied{obs::FlightKind::kProbe,
                                                      kLiar};
  EXPECT_NE(std::find(sim_read_flights.begin(), sim_read_flights.end(), missed),
            sim_read_flights.end());
  EXPECT_NE(std::find(sim_read_flights.begin(), sim_read_flights.end(), lied),
            sim_read_flights.end());
  EXPECT_GT(sim_write.acks, 0);
  EXPECT_EQ(sim_write.acks,
            static_cast<int>(std::count_if(
                sim_write_flights.begin(), sim_write_flights.end(),
                [](const auto& f) {
                  return f.first == obs::FlightKind::kWriteAck;
                })));
}

}  // namespace
}  // namespace sqs
