// Tests of the staged replicated-register service (src/service): wire
// format, CLI flag parsing, open-loop load generation, the explicit-time
// replica, and the ServiceRunner's headline contracts — bit-identical
// results at any thread count, queueing delay that rises with offered
// rate, and no lost acked write under a FaultPlan partition.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/constructions.h"
#include "core/masking.h"
#include "faults/fault_plan.h"
#include "service/load_gen.h"
#include "service/message.h"
#include "service/replica.h"
#include "service/runner.h"
#include "uqs/majority.h"
#include "util/rng.h"

namespace sqs {
namespace {

// Recompute a record's checksum the way the codec does (FNV-1a with bytes
// [4, 8) zeroed) — lets tests forge records that pass the integrity check
// so the *semantic* rejections (kind range, reserved bytes, certificates)
// are what's actually under test.
std::uint32_t forge_checksum(const std::uint8_t* rec, std::size_t size) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint8_t byte = (i >= 4 && i < 8) ? 0 : rec[i];
    h ^= byte;
    h *= 16777619u;
  }
  return h;
}

void poke_u32(std::uint8_t* rec, std::size_t offset, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i)
    rec[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void fix_request_checksum(std::uint8_t* rec) {
  poke_u32(rec, 4, forge_checksum(rec, kRequestWireSize));
}

// Re-signs the reply with the service key and refreshes the checksum, so a
// tampered reply is internally consistent except for the field under test.
void resign_reply(std::uint8_t* rec) {
  poke_u32(rec, 52, hmac32(cert_key(kServicePrincipal), rec + 8, 44));
  poke_u32(rec, 4, forge_checksum(rec, kReplyWireSize));
}

// --- wire format ------------------------------------------------------------

TEST(ServiceWire, RequestRoundTrip) {
  Request req;
  req.seq = 0x1122334455667788ull;
  req.arrival_us = 987654321;
  req.value = 42;
  req.client = 63;
  req.kind = OpKind::kWrite;
  std::uint8_t buf[kRequestWireSize];
  encode_request(req, buf);
  const Request out = decode_request(buf);
  ASSERT_TRUE(out.valid);
  EXPECT_EQ(out.seq, req.seq);
  EXPECT_EQ(out.arrival_us, req.arrival_us);
  EXPECT_EQ(out.value, req.value);
  EXPECT_EQ(out.client, req.client);
  EXPECT_EQ(out.kind, req.kind);
  EXPECT_DOUBLE_EQ(out.arrival(), 987.654321);
}

TEST(ServiceWire, ReplyRoundTrip) {
  Reply rep;
  rep.seq = 7;
  rep.latency_us = 123456;
  rep.value = 99;
  rep.ts = Timestamp{12, 3};
  rep.probes = 5;
  rep.kind = OpKind::kRead;
  rep.ok = true;
  std::uint8_t buf[kReplyWireSize];
  encode_reply(rep, buf);
  Reply out;
  ASSERT_TRUE(decode_reply(buf, &out));
  EXPECT_EQ(out.seq, rep.seq);
  EXPECT_EQ(out.latency_us, rep.latency_us);
  EXPECT_EQ(out.value, rep.value);
  EXPECT_TRUE(out.ts == rep.ts);
  EXPECT_EQ(out.probes, rep.probes);
  EXPECT_EQ(out.kind, rep.kind);
  EXPECT_TRUE(out.ok);
}

TEST(ServiceWire, ChecksumCatchesCorruption) {
  Request req;
  req.seq = 5;
  req.arrival_us = 1000;
  req.kind = OpKind::kRead;
  std::uint8_t buf[kRequestWireSize];
  encode_request(req, buf);
  // Flipping any single bit outside the checksum field itself must be
  // caught (the checksum bytes live at [4, 8)).
  for (std::size_t i = 0; i < kRequestWireSize; ++i) {
    if (i >= 4 && i < 8) continue;
    buf[i] ^= 0x01;
    EXPECT_FALSE(decode_request(buf).valid) << "byte " << i;
    buf[i] ^= 0x01;
  }
  EXPECT_TRUE(decode_request(buf).valid);  // restored
}

TEST(ServiceWire, BadMagicAndBadKindRejected) {
  Request req;
  req.kind = OpKind::kWrite;
  std::uint8_t buf[kRequestWireSize];
  encode_request(req, buf);
  std::uint8_t mangled[kRequestWireSize];
  std::memcpy(mangled, buf, kRequestWireSize);
  mangled[0] ^= 0xFF;  // magic
  EXPECT_FALSE(decode_request(mangled).valid);

  Reply rep;
  std::uint8_t rbuf[kReplyWireSize];
  encode_reply(rep, rbuf);
  rbuf[0] ^= 0xFF;
  Reply out;
  EXPECT_FALSE(decode_reply(rbuf, &out));
}

TEST(ServiceWire, ReplyRejectsOutOfRangeKind) {
  // Regression: decode_reply used to accept any kind byte and hand back a
  // Reply whose OpKind was neither kRead nor kWrite. A forged record that
  // is otherwise fully consistent (valid cert, valid checksum) must fail
  // on the range check alone.
  Reply rep;
  rep.seq = 9;
  rep.ok = true;
  rep.kind = OpKind::kRead;
  std::uint8_t buf[kReplyWireSize];
  encode_reply(rep, buf);
  Reply out;
  for (const std::uint8_t kind : {2, 3, 200, 255}) {
    buf[48] = kind;
    resign_reply(buf);
    EXPECT_FALSE(decode_reply(buf, &out)) << "kind " << int(kind);
  }
  buf[48] = static_cast<std::uint8_t>(OpKind::kWrite);
  resign_reply(buf);
  EXPECT_TRUE(decode_reply(buf, &out));
}

TEST(ServiceWire, GarbageReservedBytesRejectedDespiteValidChecksum) {
  // Reserved bytes are zeroed on encode AND enforced on decode: garbage
  // there with a recomputed (matching) checksum must still fail, keeping
  // the bytes available for future protocol versions.
  Request req;
  req.seq = 3;
  req.kind = OpKind::kRead;
  std::uint8_t rbuf[kRequestWireSize];
  encode_request(req, rbuf);
  for (const std::size_t off : {std::size_t{29}, std::size_t{31},
                                std::size_t{44}, std::size_t{47}}) {
    rbuf[off] = 0xAB;
    fix_request_checksum(rbuf);
    EXPECT_FALSE(decode_request(rbuf).valid) << "reserved byte " << off;
    rbuf[off] = 0;
  }
  fix_request_checksum(rbuf);
  EXPECT_TRUE(decode_request(rbuf).valid);

  Reply rep;
  rep.kind = OpKind::kRead;
  std::uint8_t pbuf[kReplyWireSize];
  encode_reply(rep, pbuf);
  Reply out;
  for (const std::size_t off : {std::size_t{50}, std::size_t{51}}) {
    pbuf[off] = 0x5C;
    resign_reply(pbuf);
    EXPECT_FALSE(decode_reply(pbuf, &out)) << "reserved byte " << off;
    pbuf[off] = 0;
  }
  resign_reply(pbuf);
  EXPECT_TRUE(decode_reply(pbuf, &out));
}

TEST(ServiceWire, ReplyCertCatchesTamperingTheChecksumWouldAccept) {
  // Flip a payload byte and *fix the checksum*: only the service
  // certificate stands between the tampered record and acceptance.
  Reply rep;
  rep.value = 77;
  rep.kind = OpKind::kRead;
  std::uint8_t buf[kReplyWireSize];
  encode_reply(rep, buf);
  buf[24] ^= 0xFF;  // value field
  poke_u32(buf, 4, forge_checksum(buf, kReplyWireSize));
  Reply out;
  EXPECT_FALSE(decode_reply(buf, &out));
}

TEST(ServiceWire, RequestCertBindsClientAndContents) {
  Request req;
  req.seq = 11;
  req.client = 3;
  req.kind = OpKind::kWrite;
  req.value = 42;
  const std::uint32_t cert = request_cert(req);
  Request other = req;
  other.client = 4;  // different principal, different key
  EXPECT_NE(request_cert(other), cert);
  other = req;
  other.value = 43;  // different contents under the same key
  EXPECT_NE(request_cert(other), cert);
  // Round trip preserves the cert for the prologue to verify.
  std::uint8_t buf[kRequestWireSize];
  encode_request(req, buf);
  const Request decoded = decode_request(buf);
  ASSERT_TRUE(decoded.valid);
  EXPECT_EQ(decoded.cert, cert);
}

TEST(ServiceWire, ReplicaCertBindsReplicaAndState) {
  const Timestamp ts{5, 2};
  const std::uint32_t cert = replica_cert(1, ts, 99);
  EXPECT_NE(replica_cert(2, ts, 99), cert);        // different replica key
  EXPECT_NE(replica_cert(1, ts, 100), cert);       // different value
  EXPECT_NE(replica_cert(1, Timestamp{6, 2}, 99), cert);  // different ts
  EXPECT_EQ(replica_cert(1, ts, 99), cert);        // deterministic
}

TEST(ServiceWire, ReplicaCertMemoMatchesReplicaCert) {
  // Repeats and single-field changes over small ranges, so inputs recur
  // and each field alone (replica, ts.counter, ts.writer, value) flips a
  // hit into a miss: the memo must always answer replica_cert and must
  // recompute exactly when the input differs from the previous call's.
  Rng rng(2024);
  ReplicaCertMemo memo;
  int replica = 0;
  Timestamp ts;
  std::uint64_t value = 0;
  std::uint64_t changes = 0;
  constexpr int kCalls = 4000;
  for (int i = 0; i < kCalls; ++i) {
    const int prev_replica = replica;
    const Timestamp prev_ts = ts;
    const std::uint64_t prev_value = value;
    switch (rng.next_below(5)) {
      case 0: break;  // repeat
      case 1: replica = static_cast<int>(rng.next_below(3)); break;
      case 2: ts.counter = rng.next_below(4); break;
      case 3: ts.writer = static_cast<int>(rng.next_below(4)) - 1; break;
      case 4: value = rng.next_below(4); break;
    }
    if (i == 0 || replica != prev_replica || !(ts == prev_ts) ||
        value != prev_value)
      ++changes;
    ASSERT_EQ(memo.cert_for(replica, ts, value),
              replica_cert(replica, ts, value))
        << "call " << i;
    ASSERT_EQ(memo.computed(), changes) << "call " << i;
  }
  EXPECT_LT(changes, static_cast<std::uint64_t>(kCalls));  // repeats happened
}

// --- flag parsing -----------------------------------------------------------

TEST(ServiceFlags, ParsePositiveDoubleAccepts) {
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "2000"), 2000.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_positive_double("--duration", "1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--duration", "0.25"), 0.25);
}

TEST(ServiceFlags, ParsePositiveDoubleRejectsLoudly) {
  // Malformed input returns the 0.0 sentinel (and complains on stderr)
  // instead of silently defaulting — same contract as parse_thread_count.
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "bogus"), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", ""), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "12x"), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "-3"), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "0"), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "inf"), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "nan"), 0.0);
}

// --- load generation --------------------------------------------------------

TEST(ServiceLoadGen, ConfigValidation) {
  LoadGenConfig good;
  EXPECT_TRUE(good.validate());
  LoadGenConfig bad = good;
  bad.rate = 0.0;
  EXPECT_FALSE(bad.validate());
  bad = good;
  bad.duration = -1.0;
  EXPECT_FALSE(bad.validate());
  bad = good;
  bad.read_fraction = 1.5;
  EXPECT_FALSE(bad.validate());
  bad = good;
  bad.num_clients = 0;
  EXPECT_FALSE(bad.validate());
}

LoadGenConfig small_load() {
  LoadGenConfig load;
  load.rate = 500.0;
  load.duration = 4.0;  // 2000 ops
  load.num_clients = 16;
  load.seed = 7;
  return load;
}

TEST(ServiceLoadGen, ByteIdenticalAcrossThreadCounts) {
  TrialOptions one, eight;
  one.threads = 1;
  eight.threads = 8;
  const std::vector<std::uint8_t> a = generate_load(small_load(), one);
  const std::vector<std::uint8_t> b = generate_load(small_load(), eight);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), small_load().total_ops() * kRequestWireSize);
}

TEST(ServiceLoadGen, ArrivalsMonotoneAndSchedulePlausible) {
  const LoadGenConfig load = small_load();
  const std::vector<std::uint8_t> bytes = generate_load(load);
  const std::uint64_t n = load.total_ops();
  std::uint64_t last = 0, reads = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Request req = decode_request(bytes.data() + i * kRequestWireSize);
    ASSERT_TRUE(req.valid) << "op " << i;
    EXPECT_EQ(req.seq, i);
    EXPECT_GE(req.arrival_us, last);  // arrival-sorted
    last = req.arrival_us;
    EXPECT_LT(req.client, static_cast<std::uint32_t>(load.num_clients));
    if (req.kind == OpKind::kRead) ++reads;
    // op i arrives inside its own rate slot: [i, i+1) / rate.
    EXPECT_GE(req.arrival(), static_cast<double>(i) / load.rate - 1e-6);
    EXPECT_LT(req.arrival(), static_cast<double>(i + 1) / load.rate);
  }
  // Read mix near the configured fraction (binomial, generous bounds).
  EXPECT_GT(reads, n * 7 / 10);
  EXPECT_LT(reads, n * 9 / 10);
}

// --- explicit-time replica --------------------------------------------------

ServerConfig reliable_server() {
  ServerConfig config;
  config.mean_up = 1e12;
  config.mean_down = 1e-9;
  config.service_time = 0.001;
  return config;
}

TEST(ServiceReplicaTest, ServesAndQueuesOnTheArrivalClock) {
  ServiceReplica r(0, reliable_server(), Rng(1));
  // First op: no backlog, completion = delivery + service_time.
  const auto w1 = r.serve_write(Timestamp{1, 0}, 11, 0, 0.10, 0.10);
  ASSERT_TRUE(w1.has_value());
  EXPECT_DOUBLE_EQ(*w1, 0.101);
  // Second op arrives (qnow) before the first finishes: waits its turn.
  const auto w2 = r.serve_write(Timestamp{2, 0}, 22, 0, 0.1005, 0.1005);
  ASSERT_TRUE(w2.has_value());
  EXPECT_DOUBLE_EQ(*w2, 0.1005 + (0.101 - 0.1005) + 0.001);
  // Stale timestamp is acked but not applied.
  const auto w3 = r.serve_write(Timestamp{1, 0}, 99, 0, 0.2, 0.2);
  ASSERT_TRUE(w3.has_value());
  EXPECT_TRUE(r.timestamp(0) == (Timestamp{2, 0}));
  const auto rd = r.serve_read(0, 0.3, 0.3);
  ASSERT_TRUE(rd.has_value());
  EXPECT_EQ(rd->value, 22u);
  EXPECT_EQ(r.ts_regressions(), 0u);
  EXPECT_GT(r.busy_seconds(), 0.0);
}

TEST(ServiceReplicaTest, ForcedCrashDropsRequests) {
  ServiceReplica r(0, reliable_server(), Rng(2));
  r.force_crash(1.0, 5.0);
  EXPECT_FALSE(r.up(3.0));
  EXPECT_FALSE(r.serve_read(0, 3.0, 3.0).has_value());
  EXPECT_FALSE(r.serve_write(Timestamp{1, 0}, 1, 0, 4.0, 4.0).has_value());
  EXPECT_EQ(r.dropped_requests(), 2u);
  EXPECT_TRUE(r.up(6.5));
  EXPECT_TRUE(r.serve_read(0, 6.5, 6.5).has_value());
}

TEST(ServiceReplicaTest, CertSignsTrueStateAfterEveryMutation) {
  // Every path that changes (or pointedly does not change) the served cell
  // — a write, a state transfer, a fabricated ack, each read-lie window and
  // an amnesia wipe — must leave the next read's cert signing the cell's
  // true contents, whatever the reply reports.
  ServerConfig config = reliable_server();
  config.mean_up = 5.0;
  config.mean_down = 1.0;
  config.amnesia_on_recovery = true;
  ServiceReplica r(3, config, Rng(11));
  r.force_up(0.0, 1e6);  // every read is served; wipes still happen
  double now = 0.0;
  const auto served_cert = [&](int client) {
    now += 0.0001;
    const auto served = r.serve_read(0, now, now, client);
    EXPECT_TRUE(served.has_value());
    return served ? served->cert : 0u;
  };
  const auto true_cert = [&] {
    return replica_cert(r.id(), r.timestamp(0), r.value(0));
  };

  EXPECT_EQ(served_cert(0), true_cert()) << "unwritten";
  ASSERT_TRUE(r.serve_write(Timestamp{1, 0}, 11, 0, now, now));
  EXPECT_EQ(served_cert(0), true_cert()) << "after serve_write";
  ASSERT_TRUE(r.timestamp(0) == (Timestamp{1, 0}));
  r.adopt_state(Timestamp{2, 3}, 22, 0);
  EXPECT_EQ(served_cert(0), true_cert()) << "after adopt_state";
  ASSERT_TRUE(r.timestamp(0) == (Timestamp{2, 3}));
  r.set_lie(LieMode::kFabricateAck, now, 0.001);
  ASSERT_TRUE(r.serve_write(Timestamp{3, 0}, 33, 0, now, now));
  EXPECT_EQ(served_cert(0), true_cert()) << "after a fabricated ack";
  ASSERT_TRUE(r.timestamp(0) == (Timestamp{2, 3}));  // the ack was a lie
  for (const LieMode mode :
       {LieMode::kWrongValue, LieMode::kStaleTs, LieMode::kEquivocate}) {
    r.set_lie(mode, now, 0.001);
    const std::uint64_t lies = r.lies_told();
    EXPECT_EQ(served_cert(1), true_cert()) << lie_mode_name(mode);
    EXPECT_EQ(r.lies_told(), lies + 1) << lie_mode_name(mode);
  }
  r.set_lie(LieMode::kNone, now, 0.0);
  EXPECT_EQ(served_cert(0), true_cert()) << "after the lie windows";

  // Run the hidden failure process until a recovery wipes the cell.
  while (!(r.timestamp(0) == Timestamp{})) {
    now += 0.01;
    ASSERT_LT(now, 1000.0);
    r.up(now);
  }
  EXPECT_EQ(served_cert(0), true_cert()) << "after an amnesia wipe";
  EXPECT_EQ(true_cert(), replica_cert(r.id(), Timestamp{}, 0));
  EXPECT_LT(r.certs_signed(), 10u);  // repeated reads reused the cert
}

TEST(ServiceReplicaTest, GraySlowdownInflatesServiceTime) {
  ServiceReplica r(0, reliable_server(), Rng(3));
  r.set_gray(10.0, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(r.service_time(1.0), 0.010);
  EXPECT_DOUBLE_EQ(r.service_time(3.0), 0.001);  // window over
}

// --- the staged runner ------------------------------------------------------

ServiceConfig service_config() {
  ServiceConfig config;
  config.num_clients = 16;
  config.batch = 64;
  config.seed = 7;
  return config;
}

TEST(Service, ConfigValidation) {
  EXPECT_TRUE(service_config().validate(12));
  ServiceConfig bad = service_config();
  bad.batch = 0;
  EXPECT_FALSE(bad.validate(12));
  bad = service_config();
  bad.probe_timeout = -1.0;
  EXPECT_FALSE(bad.validate(12));
  bad = service_config();
  bad.num_clients = 0;
  EXPECT_FALSE(bad.validate(12));
  bad = service_config();
  bad.threads = -2;
  EXPECT_FALSE(bad.validate(12));
}

TEST(Service, ConfigValidationRejectsNanViewFetchDelay) {
  testing::internal::CaptureStderr();
  ServiceConfig bad = service_config();
  bad.view_fetch_delay = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(bad.validate(12));
  EXPECT_NE(testing::internal::GetCapturedStderr().find("view_fetch_delay"),
            std::string::npos);
}

TEST(Service, BitIdenticalAcrossThreadCounts) {
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(small_load());
  ServiceResult first;
  std::vector<std::uint8_t> first_replies;
  bool have_first = false;
  for (const int threads : {1, 2, 8}) {
    ServiceConfig config = service_config();
    config.threads = threads;
    ServiceRunner runner(family, config);
    std::vector<std::uint8_t> replies;
    const ServiceResult r = runner.serve(requests, &replies);
    EXPECT_EQ(r.requests, small_load().total_ops());
    EXPECT_EQ(r.decode_failures, 0u);
    EXPECT_EQ(r.reads + r.writes, r.requests);
    if (!have_first) {
      first = r;
      first_replies = std::move(replies);
      have_first = true;
      continue;
    }
    // The whole result is a deterministic function of (requests, config):
    // reply bytes, fingerprint, every counter, the latency histogram.
    EXPECT_EQ(replies, first_replies) << "threads=" << threads;
    EXPECT_EQ(r.reply_fingerprint, first.reply_fingerprint);
    EXPECT_EQ(r.reads_ok, first.reads_ok);
    EXPECT_EQ(r.writes_ok, first.writes_ok);
    EXPECT_EQ(r.stale_reads, first.stale_reads);
    EXPECT_EQ(r.probes, first.probes);
    EXPECT_EQ(r.net_delivered, first.net_delivered);
    EXPECT_EQ(r.net_dropped, first.net_dropped);
    EXPECT_EQ(r.latency_us.counts, first.latency_us.counts);
    EXPECT_EQ(r.latency_us.sum, first.latency_us.sum);
  }
}

TEST(Service, CorruptRequestCountedAndAnsweredNotOk) {
  const OptDFamily family(12, 2);
  std::vector<std::uint8_t> requests = generate_load(small_load());
  requests[5 * kRequestWireSize + 32] ^= 0xFF;  // corrupt op 5's payload
  ServiceRunner runner(family, service_config());
  std::vector<std::uint8_t> replies;
  const ServiceResult r = runner.serve(requests, &replies);
  EXPECT_EQ(r.decode_failures, 1u);
  EXPECT_EQ(r.requests, small_load().total_ops());
  Reply rep;
  ASSERT_TRUE(decode_reply(replies.data() + 5 * kReplyWireSize, &rep));
  EXPECT_EQ(rep.seq, 5u);
  EXPECT_FALSE(rep.ok);
}

TEST(Service, QueueingRaisesTailLatencyTowardSaturation) {
  // OPT_d probes sequentially, so server 0 sees every op: its capacity
  // (1/service_time = 1000 ops/s) caps the service. Offered load well past
  // that must show up as queueing delay in the tail; a trickle must not.
  const OptDFamily family(12, 2);
  LoadGenConfig trickle = small_load();
  trickle.rate = 100.0;
  trickle.duration = 20.0;  // 2000 ops
  LoadGenConfig flood = small_load();
  flood.rate = 5000.0;
  flood.duration = 1.0;  // 5000 ops in one virtual second
  ServiceRunner slow(family, service_config());
  ServiceRunner fast(family, service_config());
  const ServiceResult low = slow.serve(generate_load(trickle));
  const ServiceResult high = fast.serve(generate_load(flood));
  EXPECT_GT(high.latency_us.p99(), 2.0 * low.latency_us.p99());
  EXPECT_GT(high.latency_us.p50(), low.latency_us.p50());
}

TEST(Service, PartitionPreservesEveryAckedWrite) {
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(small_load());

  ServiceRunner plain_runner(family, service_config());
  const ServiceResult plain = plain_runner.serve(requests);

  // Cut server 0 (OPT_d's first probe target, so every op feels it) off
  // from every client for half the run.
  ServiceConfig partitioned = service_config();
  partitioned.plan.server_partition(1.0, 0, 2.0);
  ServiceRunner part_runner(family, partitioned);
  const ServiceResult part = part_runner.serve(requests);

  // The fault bit: ops during the window burn the probe timeout on server
  // 0, so total latency strictly grows and the reply stream differs.
  EXPECT_GT(part.latency_us.sum, plain.latency_us.sum);
  EXPECT_NE(part.reply_fingerprint, plain.reply_fingerprint);
  // The invariant: partitions delay and redirect, they do not destroy
  // state — every acked write stays readable on both runs.
  EXPECT_EQ(plain.lost_acked_writes, 0u);
  EXPECT_EQ(part.lost_acked_writes, 0u);
  EXPECT_GT(part.writes_ok, 0u);
}

TEST(Service, ForgedRequestCertRejectedInPrologue) {
  // An impersonated request (valid checksum, wrong client certificate) is
  // rejected by the parallel verify prologue before the solo stage: counted
  // as a cert reject, answered not-ok, never a decode failure.
  const OptDFamily family(12, 2);
  std::vector<std::uint8_t> requests = generate_load(small_load());
  std::uint8_t* rec = requests.data() + 7 * kRequestWireSize;
  rec[40] ^= 0xFF;  // cert field
  fix_request_checksum(rec);
  ServiceRunner runner(family, service_config());
  std::vector<std::uint8_t> replies;
  const ServiceResult r = runner.serve(requests, &replies);
  EXPECT_EQ(r.decode_failures, 0u);
  EXPECT_EQ(r.cert_rejects, 1u);
  Reply rep;
  ASSERT_TRUE(decode_reply(replies.data() + 7 * kReplyWireSize, &rep));
  EXPECT_EQ(rep.seq, 7u);
  EXPECT_FALSE(rep.ok);
}

// --- Byzantine replicas on the served path ----------------------------------

ServiceConfig byzantine_config(int n, int liars, int lie_tolerance) {
  ServiceConfig config = service_config();
  config.plan = make_byzantine_plan(n, liars, 0.5, 3.0);
  config.lie_tolerance = lie_tolerance;
  return config;
}

TEST(ServiceByzantine, CertVerificationStripsLiesOffTheQuorumPath) {
  // Liars attach the truthful certificate to fabricated contents
  // (signatures are unforgeable in-model), so the verifying runner drops
  // every corrupted reply: cert rejects accumulate, fabrications never
  // reach a client.
  const MajorityFamily family(9);
  ServiceRunner runner(family, byzantine_config(9, 1, 0));
  const ServiceResult r = runner.serve(generate_load(small_load()));
  EXPECT_GT(r.cert_rejects, 0u);
  EXPECT_EQ(r.fabricated_reads, 0u);
  EXPECT_GT(r.reads_ok, 0u);
}

TEST(ServiceByzantine, UnverifiedUnvotedServiceReturnsFabrications) {
  // The designed-to-fail control: no cert verification and no masking vote
  // lets the boosted fabricated timestamps win the max fold.
  const MajorityFamily family(9);
  ServiceConfig config = byzantine_config(9, 1, 0);
  config.verify_replica_certs = false;
  ServiceRunner runner(family, config);
  const ServiceResult r = runner.serve(generate_load(small_load()));
  EXPECT_EQ(r.cert_rejects, 0u);
  EXPECT_GT(r.fabricated_reads, 0u);
}

TEST(ServiceByzantine, MaskingVoteAloneStopsFabrications) {
  // Even with certificates off, a masking family's b+1 vote cannot be
  // assembled by b liars (fabricated values are distinct per liar): zero
  // fabricated reads and no lost acked write.
  const MaskingThresholdFamily family(9, 1);
  ServiceConfig config = byzantine_config(9, 1, family.masking_b());
  config.verify_replica_certs = false;
  ServiceRunner runner(family, config);
  const ServiceResult r = runner.serve(generate_load(small_load()));
  EXPECT_EQ(r.fabricated_reads, 0u);
  EXPECT_EQ(r.lost_acked_writes, 0u);
  EXPECT_GT(r.reads_ok, 0u);
}

TEST(ServiceByzantine, StaleReplayOfVerifiedStateIsRejected) {
  // Replica 0 (OPT_d's first probe, so every op reads it) is read while
  // unwritten, then written, then lies kStaleTs: it reports the ({}, 0) the
  // runner already verified from it, under the cert of its newer true
  // state. A verifier that trusted a remembered (ts, value) without
  // comparing the cert would accept the replay; every lie must instead be a
  // cert reject. Links and replicas never fail and the timeout is far away,
  // so each lie reaches the verifier.
  const OptDFamily family(12, 2);
  ServiceConfig config = service_config();
  config.num_clients = 4;
  config.server = reliable_server();
  config.network.link_mean_up = 1e12;
  config.network.link_mean_down = 1e-9;
  config.probe_timeout = 5.0;
  config.plan.lie(1.0, 0, LieMode::kStaleTs, 2.0);

  std::vector<std::uint8_t> requests;
  const auto add = [&requests](std::uint64_t arrival_us, OpKind kind,
                               std::uint64_t value) {
    Request req;
    req.seq = requests.size() / kRequestWireSize;
    req.arrival_us = arrival_us;
    req.client = static_cast<std::uint32_t>(req.seq % 4);
    req.kind = kind;
    req.value = value;
    requests.resize(requests.size() + kRequestWireSize);
    encode_request(req, requests.data() + req.seq * kRequestWireSize);
  };
  add(100000, OpKind::kRead, 0);     // replica 0 verified at ({}, 0)
  add(300000, OpKind::kWrite, 42);   // replica 0 now holds the write
  for (std::uint64_t i = 0; i < 20; ++i)
    add(1100000 + 50000 * i, OpKind::kRead, 0);  // inside the lie window

  ServiceRunner runner(family, config);
  const ServiceResult r = runner.serve(requests);
  ASSERT_EQ(r.writes_ok, 1u);
  ASSERT_EQ(runner.replica(0).timestamp(0).counter, 1u);
  EXPECT_EQ(r.net_dropped, 0u);
  EXPECT_EQ(r.replica_dropped, 0u);
  EXPECT_EQ(r.reads_ok, 21u);
  EXPECT_EQ(runner.replica(0).lies_told(), 20u);
  EXPECT_EQ(r.cert_rejects, runner.replica(0).lies_told());
  EXPECT_EQ(r.fabricated_reads, 0u);
}

TEST(ServiceByzantine, BitIdenticalAcrossThreadCounts) {
  // The byzantine serve path (lie application, cert rejection, the masking
  // vote) lives entirely in the solo stage: replies stay byte-equal at any
  // thread count.
  const MaskingThresholdFamily family(9, 1);
  const std::vector<std::uint8_t> requests = generate_load(small_load());
  ServiceResult first;
  std::vector<std::uint8_t> first_replies;
  bool have_first = false;
  for (const int threads : {1, 2, 8}) {
    ServiceConfig config = byzantine_config(9, 1, family.masking_b());
    config.threads = threads;
    ServiceRunner runner(family, config);
    std::vector<std::uint8_t> replies;
    const ServiceResult r = runner.serve(requests, &replies);
    if (!have_first) {
      first = r;
      first_replies = std::move(replies);
      have_first = true;
      continue;
    }
    EXPECT_EQ(replies, first_replies) << "threads=" << threads;
    EXPECT_EQ(r.reply_fingerprint, first.reply_fingerprint);
    EXPECT_EQ(r.cert_rejects, first.cert_rejects);
    EXPECT_EQ(r.fabricated_reads, first.fabricated_reads);
    EXPECT_EQ(r.reads_ok, first.reads_ok);
    EXPECT_EQ(r.writes_ok, first.writes_ok);
    EXPECT_EQ(r.latency_us.counts, first.latency_us.counts);
  }
}

TEST(Service, LifetimeTotalsAccumulateAcrossServeCalls) {
  const OptDFamily family(12, 2);
  LoadGenConfig load = small_load();
  load.duration = 1.0;  // 500 ops
  const std::vector<std::uint8_t> requests = generate_load(load);
  ServiceRunner runner(family, service_config());
  const ServiceResult once = runner.serve(requests);
  const ServiceResult twice = runner.serve(requests);
  EXPECT_EQ(once.requests, load.total_ops());
  EXPECT_EQ(twice.requests, 2 * load.total_ops());
  EXPECT_GE(twice.probes, once.probes);
}

}  // namespace
}  // namespace sqs
