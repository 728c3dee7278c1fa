#include "service/runner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <optional>
#include <utility>

#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace sqs {

namespace {

struct ServiceMetrics {
  obs::Counter requests = obs::Registry::instance().counter("service.requests");
  obs::Counter decode_failures =
      obs::Registry::instance().counter("service.decode_failures");
  obs::Counter reads_ok = obs::Registry::instance().counter("service.reads_ok");
  obs::Counter writes_ok =
      obs::Registry::instance().counter("service.writes_ok");
  obs::Counter stale_reads =
      obs::Registry::instance().counter("service.stale_reads");
  obs::Counter cert_rejects =
      obs::Registry::instance().counter("service.cert_rejects");
  obs::Counter fabricated_reads =
      obs::Registry::instance().counter("service.fabricated_reads");
  obs::Counter certs_signed =
      obs::Registry::instance().counter("service.replica_cert.signed");
  obs::Counter certs_verified =
      obs::Registry::instance().counter("service.replica_cert.verified");
  obs::Counter faults_injected =
      obs::Registry::instance().counter("service.faults.injected");
  obs::Histogram op_latency_us = obs::Registry::instance().histogram(
      "service.op_latency_us", service_latency_bounds());
  obs::Histogram prologue_ns = obs::Registry::instance().histogram(
      "service.prologue_batch_ns", obs::pow2_bounds(10, 34));
  obs::Histogram solo_ns = obs::Registry::instance().histogram(
      "service.solo_batch_ns", obs::pow2_bounds(10, 34));
  obs::Histogram epilogue_ns = obs::Registry::instance().histogram(
      "service.epilogue_batch_ns", obs::pow2_bounds(10, 34));
  static const ServiceMetrics& get() {
    static const ServiceMetrics m;
    return m;
  }
};

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

using obs::us;

}  // namespace

std::vector<std::uint64_t> service_latency_bounds() {
  std::vector<std::uint64_t> bounds =
      obs::linear_bounds(1000, 200000, 1000);  // 1 ms steps to 200 ms
  for (int e = 18; e <= 26; ++e)               // 262 ms .. 67 s
    bounds.push_back(1ull << e);
  return bounds;
}

bool ServiceConfig::validate(int num_servers) const {
  bool ok = network.validate() && server.validate();
  if (!RegisterProtocolConfig::validate("ServiceConfig")) ok = false;
  const auto reject = [&ok](const char* what, double value) {
    std::fprintf(stderr, "ServiceConfig: invalid %s %g\n", what, value);
    ok = false;
  };
  if (num_clients < 1) reject("num_clients", num_clients);
  if (batch < 1) reject("batch", batch);
  if (threads < 0) reject("threads", threads);
  if (epochs != nullptr) {
    if (!epochs->validate()) {
      ok = false;
    } else if (epochs->num_logical != num_servers) {
      std::fprintf(stderr,
                   "ServiceConfig: epoch schedule spans %d logical servers, "
                   "fleet has %d\n",
                   epochs->num_logical, num_servers);
      ok = false;
    }
  }
  if (!plan.validate(num_clients, num_servers)) ok = false;
  return ok;
}

ServiceRunner::ServiceRunner(const QuorumFamily& family,
                             const ServiceConfig& config)
    : config_(config),
      transport_(config.num_clients,
                 config.epochs != nullptr ? config.epochs->num_logical
                                          : family.universe_size(),
                 config.network, Rng(config.seed).split("network")),
      op_rng_base_(Rng(config.seed).split("ops")),
      fault_timeline_(config.plan.events),
      op_(config) {
  // In epoch mode the fleet spans every logical id the schedule ever uses,
  // and the ctor family must be epoch 0's family (same universe size).
  const int world = config.epochs != nullptr ? config.epochs->num_logical
                                             : family.universe_size();
  assert(config.validate(world));
  const Rng server_base = Rng(config.seed).split("servers");
  replicas_.reserve(static_cast<std::size_t>(world));
  for (int i = 0; i < world; ++i)
    replicas_.emplace_back(i, config.server, server_base.split(
                                                 static_cast<std::uint64_t>(i)));
  verifiers_.resize(static_cast<std::size_t>(world));
  if (config_.epochs != nullptr) {
    const EpochedFamily& sched = *config_.epochs;
    assert(sched.entry(0).family->universe_size() == family.universe_size());
    for (const EpochEntry& e : sched.epochs)
      strategies_.push_back(e.family->make_probe_strategy());
    for (std::size_t i = 0; i < replicas_.size(); ++i)
      replicas_[i].set_member(sched.entry(0).view.contains(static_cast<int>(i)));
  } else {
    strategies_.push_back(family.make_probe_strategy());
  }
  std::stable_sort(fault_timeline_.begin(), fault_timeline_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  obs::HistogramSnapshot& latency = totals_.latency_us;
  latency.name = "service.op_latency_us";
  latency.bounds = service_latency_bounds();
  latency.counts.assign(latency.bounds.size() + 1, 0);
  if (config.timeline_window_us > 0)
    timeline_ = obs::Timeline(config.timeline_window_us,
                              service_latency_bounds());
}

ServiceRunner::~ServiceRunner() = default;

void ServiceRunner::apply_faults_until(double now) {
  while (next_fault_ < fault_timeline_.size() &&
         fault_timeline_[next_fault_].at <= now) {
    const FaultEvent& e = fault_timeline_[next_fault_++];
    obs::flight(obs::FlightKind::kFault, obs::kNoOp, us(e.at), e.server,
                static_cast<std::uint64_t>(e.kind));
    apply_fault_event(e, e.at, replicas_, transport_);
    ServiceMetrics::get().faults_injected.add(1);
  }
}

void ServiceRunner::apply_epochs_until(double now) {
  if (config_.epochs == nullptr) return;
  const EpochedFamily& sched = *config_.epochs;
  while (next_epoch_ < sched.num_epochs() && sched.entry(next_epoch_).at <= now) {
    const int e = next_epoch_++;
    apply_epoch_transition(sched, e, replicas_);
    current_epoch_ = e;
    ++totals_.epoch_transitions;
    obs::flight(obs::FlightKind::kEpochTransition, obs::kNoOp,
                us(sched.entry(e).at), -1, static_cast<std::uint64_t>(e));
  }
}

void ServiceRunner::record_latency(std::uint64_t us) {
  obs::HistogramSnapshot& h = totals_.latency_us;
  ++h.counts[static_cast<std::size_t>(
      std::lower_bound(h.bounds.begin(), h.bounds.end(), us) -
      h.bounds.begin())];
  h.min = h.count == 0 ? us : std::min(h.min, us);
  ++h.count;
  h.sum += us;
  h.max = std::max(h.max, us);
  ServiceMetrics::get().op_latency_us.record(us);
}

Reply ServiceRunner::execute_op(const Request& req) {
  const double arrival = req.arrival();
  last_arrival_ = std::max(last_arrival_, arrival);
  apply_faults_until(arrival);
  apply_epochs_until(arrival);
  const Timestamp frontier = audit_.frontier(arrival);

  const obs::OpId op = obs::make_op_id(obs::kServiceStream, req.seq);
  obs::flight(obs::FlightKind::kArrival, op, req.arrival_us, -1, req.client);
  // Queue backlog across the fleet at this arrival (timeline evidence only;
  // skipped when no timeline so the hot path stays O(probes)).
  std::uint64_t queue_us = 0;
  if (timeline_.enabled()) {
    double backlog = 0.0;
    for (const ServiceReplica& r : replicas_)
      backlog = std::max(backlog, r.backlog(arrival));
    queue_us = us(backlog);
  }
  std::uint64_t op_drops = 0;  // arrivals at a down replica, this op

  Reply rep;
  rep.seq = req.seq;
  rep.kind = req.kind;

  // Acquisition: RegisterOp's probe loop evaluated synchronously in virtual
  // time. A probe's round trip is to-server leg + replica queueing/service
  // + to-client leg; replies later than probe_timeout count as failures
  // (the server still did the work). In epoch mode the runner probes under
  // its own (possibly stale) adopted view, and a failed acquisition with
  // epoch evidence re-probes under a freshly fetched view (bounded,
  // fixed-cost, rng-free — bit-identity holds at any thread count because
  // all of this is solo-stage arrival-ordered state).
  const double timeout = config_.probe_timeout;
  const int client = static_cast<int>(req.client);
  // The reply leg of a request sent at `sent` that left replica `dst` at
  // `done`: the round trip, or nullopt when the reply is lost or late.
  const auto reply_rtt = [&](int dst, double sent,
                             double done) -> std::optional<double> {
    const Transport::Delivery back = transport_.attempt(client, dst, done);
    const double rtt = done + back.latency - sent;
    if (!back.delivered || rtt > timeout) return std::nullopt;
    return rtt;
  };
  Rng op_rng = op_rng_base_.split(req.seq);
  double t = arrival;
  op_.start(op);
  for (;;) {
    op_.begin_attempt(
        strategies_[static_cast<std::size_t>(view_epoch_)].get(), &op_rng,
        config_.epochs ? &config_.epochs->entry(view_epoch_).view : nullptr);
    while (op_.probing()) {
      const RegisterOp::Probe p = op_.next();
      ServiceReplica& replica = replicas_[static_cast<std::size_t>(p.replica)];
      const double t0 = t;
      // A retired replica answers — at normal queueing cost — with an epoch
      // fence instead of register state.
      const bool fenced = replica.fences_requests();
      std::optional<ServiceReplica::ReadServed> served;
      std::optional<double> rtt;  // a timely answer's round trip
      const Transport::Delivery to = transport_.attempt(client, p.replica, t);
      if (to.delivered) {
        std::optional<double> done;
        if (fenced) {
          done = replica.serve_fence(t + to.latency, arrival);
        } else if ((served = replica.serve_read(0, t + to.latency, arrival,
                                                client))) {
          done = served->done;
        }
        if (done)
          rtt = reply_rtt(p.replica, t, *done);
        else
          ++op_drops;
      }
      t += rtt ? *rtt : timeout;
      if (rtt && fenced) {
        ++totals_.epoch_rejects;
        op_.fence(p, us(t0), replica.epoch());
      } else if (rtt && (!config_.verify_replica_certs ||
                         served->cert ==
                             verifiers_[static_cast<std::size_t>(p.replica)]
                                 .cert_for(p.replica, served->ts,
                                           served->value))) {
        op_.reply(p, us(t0), us(t - t0), served->ts, served->value,
                  replica.retired(), replica.epoch());
      } else {
        // A lying replica signs its true state, so its fabrication fails
        // the cert check and the probe is a miss that cost the rtt.
        if (rtt) ++totals_.cert_rejects;
        op_.miss(p, us(t0), us(t - t0));
      }
    }
    if (!op_.should_fetch_view(current_epoch_, view_epoch_)) break;
    ++totals_.view_refreshes;
    t += config_.view_fetch_delay;
    view_epoch_ = current_epoch_;
    op_.note_view_fetch(us(t), view_epoch_);
  }
  // A completed op with epoch evidence learns the view for subsequent ops.
  if (op_.finish(us(t), current_epoch_, view_epoch_)) {
    ++totals_.view_refreshes;
    view_epoch_ = current_epoch_;
  }
  const auto probes = static_cast<std::uint32_t>(op_.num_probes());
  totals_.probes += probes;
  rep.probes = probes;
  double finish = t;

  const ReplyTally::Decision d = op_.decide();
  if (req.kind == OpKind::kRead) {
    ++totals_.reads;
    if (d.ok) {
      ++totals_.reads_ok;
      rep.ok = true;
      rep.ts = d.ts;
      rep.value = d.value;
      if (d.ts < frontier) {
        ++totals_.stale_reads;
        obs::flight(obs::FlightKind::kStaleRead, op, us(t));
      }
      if (!audit_.genuine(d.ts, d.value)) {
        ++totals_.fabricated_reads;
        obs::flight(obs::FlightKind::kFabricatedRead, op, us(t), -1, d.value);
      }
      // No-read-from-retired-server accounting: adopting state served by a
      // retired replica means the fence failed — only the
      // serve_while_retired bug switch can get here.
      if (d.retired_index >= 0) {
        ++totals_.retired_reads;
        obs::flight(obs::FlightKind::kRetiredRead, op, us(t),
                    op_.replica(d.retired_index),
                    static_cast<std::uint64_t>(d.ts.counter));
      }
    }
  } else {
    ++totals_.writes;
    if (d.ok) {
      ++totals_.writes_ok;
      const Timestamp new_ts{d.ts.counter + 1, client};
      // Push to every reached probed server in ascending family-index order
      // (the order install paths use everywhere else); each push resolves
      // at its ack round trip or at the timeout, and the write completes
      // when the last target resolves.
      int acks = 0;
      double end = t;
      const ReplyTally& reached = op_.tally();
      for (int s = 0; s < reached.size(); ++s) {
        if (!reached.reached(s)) continue;
        const int dst = op_.replica(s);
        const Transport::Delivery to = transport_.attempt(client, dst, t);
        std::optional<double> rtt;
        if (to.delivered) {
          const std::optional<double> done =
              replicas_[static_cast<std::size_t>(dst)].serve_write(
                  new_ts, req.value, 0, t + to.latency, arrival);
          if (done)
            rtt = reply_rtt(dst, t, *done);
          else
            ++op_drops;
        }
        const bool acked = rtt.has_value();
        const double resolve = acked ? *rtt : timeout;
        if (acked) ++acks;
        obs::flight(acked ? obs::FlightKind::kWriteAck
                          : obs::FlightKind::kWriteNack,
                    op, us(t), dst, us(resolve));
        end = std::max(end, t + resolve);
      }
      totals_.write_acks += static_cast<std::uint64_t>(acks);
      rep.ok = true;
      rep.ts = new_ts;
      rep.value = req.value;
      audit_.record_write(new_ts, req.value, acks > 0, end);
      finish = end;
    }
  }

  const std::uint64_t latency_us = us(finish - arrival);
  rep.latency_us = latency_us;
  record_latency(latency_us);
  obs::flight(obs::FlightKind::kOpDone, op, us(finish), -1, latency_us);
  // Op-tagged wall-clock instant so --trace-jsonl reconstructs a served
  // op's journey (scripts/op_timeline.py) alongside the flight recorder's
  // virtual-time view.
  if (obs::trace_enabled())
    obs::instant_op("service", rep.ok ? "op_served" : "op_failed", op,
                    "latency_us", latency_us);
  timeline_.record_op(req.arrival_us, rep.ok, req.kind == OpKind::kRead,
                      latency_us, probes, queue_us, op_drops);
  return rep;
}

ServiceResult ServiceRunner::serve(const std::vector<std::uint8_t>& requests,
                                   std::vector<std::uint8_t>* replies_out) {
  assert(requests.size() % kRequestWireSize == 0);
  const std::uint64_t n = requests.size() / kRequestWireSize;
  const std::uint64_t batch = static_cast<std::uint64_t>(config_.batch);
  const std::uint64_t num_batches = (n + batch - 1) / batch;
  const std::uint8_t* in = requests.data();

  std::vector<std::uint8_t> encoded(n * kReplyWireSize);
  std::vector<Request> parsed(n);
  std::vector<Reply> decoded(n);
  std::vector<std::uint64_t> decode_fail(num_batches, 0);
  std::vector<std::uint64_t> cert_fail(num_batches, 0);

  {
    std::lock_guard<std::mutex> lk(turn_mu_);
    solo_turn_ = 0;
  }
  const ServiceResult before = totals_;  // obs counters get this call's deltas

  const auto wall_start = std::chrono::steady_clock::now();
  auto process = [&](std::uint64_t b) {
    const std::uint64_t begin = b * batch;
    const std::uint64_t end = std::min(n, begin + batch);
    const bool timed = obs::telemetry_enabled();
    const ServiceMetrics& metrics = ServiceMetrics::get();

    // Prologue: decode + verify this batch's records (private slice). The
    // client-certificate check lives here too — the signature verification
    // a WAN deployment hoists into the stateless stage — so an impersonated
    // request never reaches the solo stage.
    std::uint64_t stage_start = timed ? obs::trace_now_ns() : 0;
    std::uint64_t bad = 0, bad_cert = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      parsed[i] = decode_request(in + i * kRequestWireSize);
      if (!parsed[i].valid) {
        ++bad;
      } else if (parsed[i].cert != request_cert(parsed[i])) {
        parsed[i].valid = false;
        ++bad_cert;
      }
      if (parsed[i].valid) {
        obs::flight(obs::FlightKind::kDecoded,
                    obs::make_op_id(obs::kServiceStream, parsed[i].seq),
                    parsed[i].arrival_us, -1, 1);
      }
    }
    decode_fail[b] = bad;
    cert_fail[b] = bad_cert;
    if (timed) metrics.prologue_ns.record(obs::trace_now_ns() - stage_start);

    // Solo: wait for this batch's ticket, run its ops in arrival order,
    // hand the ticket on.
    {
      std::unique_lock<std::mutex> lk(turn_mu_);
      turn_cv_.wait(lk, [&] { return solo_turn_ == b; });
    }
    stage_start = timed ? obs::trace_now_ns() : 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      if (parsed[i].valid) {
        decoded[i] = execute_op(parsed[i]);
      } else {
        decoded[i] = Reply{};
        decoded[i].seq = i;
      }
    }
    if (timed) metrics.solo_ns.record(obs::trace_now_ns() - stage_start);
    {
      std::lock_guard<std::mutex> lk(turn_mu_);
      ++solo_turn_;
    }
    turn_cv_.notify_all();

    // Epilogue: encode + checksum this batch's replies (private slice).
    stage_start = timed ? obs::trace_now_ns() : 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      encode_reply(decoded[i], encoded.data() + i * kReplyWireSize);
      if (parsed[i].valid) {
        obs::flight(obs::FlightKind::kEncoded,
                    obs::make_op_id(obs::kServiceStream, parsed[i].seq),
                    parsed[i].arrival_us + decoded[i].latency_us, -1,
                    decoded[i].ok ? 1 : 0);
      }
    }
    if (timed) metrics.epilogue_ns.record(obs::trace_now_ns() - stage_start);
  };

  const int threads = config_.threads > 0 ? config_.threads : default_threads();
  ThreadPool::global(threads - 1).for_each_chunk(num_batches, threads, process);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  totals_.requests += n;
  for (std::uint64_t b = 0; b < num_batches; ++b) {
    totals_.decode_failures += decode_fail[b];
    totals_.cert_rejects += cert_fail[b];
  }
  totals_.replica_certs_signed = 0;
  for (const ServiceReplica& r : replicas_)
    totals_.replica_certs_signed += r.certs_signed();
  totals_.replica_certs_verified = 0;
  for (const ReplicaCertMemo& v : verifiers_)
    totals_.replica_certs_verified += v.computed();

  ServiceResult result = totals_;
  result.current_epoch = current_epoch_;
  result.view_epoch = view_epoch_;
  if (totals_.fabricated_reads > 0 || totals_.retired_reads > 0)
    obs::flight(obs::FlightKind::kViolation, obs::kNoOp, us(last_arrival_));
  const ReplicaCounts counts = fleet_counts(replicas_);
  result.replica_dropped = counts.dropped_requests;
  result.ts_regressions = counts.ts_regressions;
  publish_replica_counts(
      "service.replica",
      {counts.dropped_requests - published_.dropped_requests,
       counts.ts_regressions - published_.ts_regressions,
       counts.lies_told - published_.lies_told});
  published_ = counts;
  result.net_delivered = transport_.messages_delivered();
  result.net_dropped = transport_.messages_dropped();

  // No-lost-acked-write: the highest acked write must still be readable
  // on some non-retired replica (state stranded on a retired replica is
  // invisible to every future quorum, so drain-on-leave must have moved it).
  result.lost_acked_writes = audit_.lost_acked_write(replicas_) ? 1 : 0;
  if (result.lost_acked_writes > 0) {
    obs::flight(obs::FlightKind::kLostWrite, obs::kNoOp, us(last_arrival_), -1,
                static_cast<std::uint64_t>(audit_.max_acked().counter));
    obs::flight(obs::FlightKind::kViolation, obs::kNoOp, us(last_arrival_));
  }

  result.reply_fingerprint = fnv1a64(encoded.data(), encoded.size());
  result.virtual_duration = last_arrival_;
  result.wall_ms = wall_ms;

  const ServiceMetrics& metrics = ServiceMetrics::get();
  metrics.requests.add(n);
  metrics.decode_failures.add(totals_.decode_failures - before.decode_failures);
  metrics.reads_ok.add(totals_.reads_ok - before.reads_ok);
  metrics.writes_ok.add(totals_.writes_ok - before.writes_ok);
  metrics.stale_reads.add(totals_.stale_reads - before.stale_reads);
  metrics.cert_rejects.add(totals_.cert_rejects - before.cert_rejects);
  metrics.fabricated_reads.add(totals_.fabricated_reads -
                               before.fabricated_reads);
  metrics.certs_signed.add(totals_.replica_certs_signed -
                           before.replica_certs_signed);
  metrics.certs_verified.add(totals_.replica_certs_verified -
                             before.replica_certs_verified);

  if (replies_out != nullptr) *replies_out = std::move(encoded);
  return result;
}

}  // namespace sqs
