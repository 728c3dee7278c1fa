#include "sim/client.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace sqs {

namespace {

struct ClientMetrics {
  obs::Counter retries = obs::Registry::instance().counter("sim.client.retries");
  obs::Counter deadline_exceeded =
      obs::Registry::instance().counter("sim.client.deadline_exceeded");
  static const ClientMetrics& get() {
    static const ClientMetrics m;
    return m;
  }
};

using obs::us;

}  // namespace

bool ClientConfig::validate() const {
  bool ok = RegisterProtocolConfig::validate("ClientConfig");
  const auto reject = [&ok](const char* what, double value) {
    std::fprintf(stderr, "ClientConfig: invalid %s %g\n", what, value);
    ok = false;
  };
  if (max_attempts < 1) reject("max_attempts", max_attempts);
  if (!(backoff_base >= 0.0)) reject("backoff_base", backoff_base);
  if (!(backoff_jitter >= 0.0 && backoff_jitter <= 1.0))
    reject("backoff_jitter", backoff_jitter);
  if (!(ewma_gain > 0.0 && ewma_gain <= 1.0)) reject("ewma_gain", ewma_gain);
  if (!(timeout_multiplier > 0.0))
    reject("timeout_multiplier", timeout_multiplier);
  if (!(min_probe_timeout > 0.0))
    reject("min_probe_timeout", min_probe_timeout);
  if (!(max_probe_timeout >= min_probe_timeout))
    reject("max_probe_timeout", max_probe_timeout);
  if (!(op_deadline >= 0.0)) reject("op_deadline", op_deadline);
  return ok;
}

SimClient::SimClient(Simulator* sim, Transport* net,
                     std::vector<Replica>* servers, int id,
                     const QuorumFamily* family, const ClientConfig& config,
                     Rng rng, const EpochState* epochs)
    : sim_(sim),
      net_(net),
      servers_(servers),
      id_(id),
      family_(family),
      config_(config),
      rng_(std::move(rng)),
      epochs_(epochs),
      op_(config_) {}

double SimClient::current_probe_timeout() const {
  if (!config_.adaptive_timeout || !have_rtt_) return config_.probe_timeout;
  return std::clamp(config_.timeout_multiplier * ewma_rtt_,
                    config_.min_probe_timeout, config_.max_probe_timeout);
}

void SimClient::after(double delay, SimEvent ev) {
  ev.target = this;
  ev.client = id_;
  sim_->schedule(delay, ev);
}

void SimClient::send(int replica, SimEvent ev) {
  const Transport::Delivery d = net_->attempt(id_, replica, sim_->now());
  if (!d.delivered) return;
  ev.replica = replica;
  after(d.latency, ev);
}

bool SimClient::resolve(std::uint64_t seq) {
  if (op_.pending_seq != seq) return false;
  op_.pending_seq = 0;
  return true;
}

void SimClient::start_op(const QuorumFamily* family, int object,
                         std::uint64_t value, Done done) {
  assert(op_.done.index() == 0 && "one operation in flight per client");
  op_.done = std::move(done);
  op_.family = family;
  op_.object = object;
  op_.value = value;
  op_.start = sim_->now();
  op_.result = AcquisitionResult{};
  op_.result.op = obs::make_op_id(1 + static_cast<std::uint32_t>(id_),
                                  next_op_++);
  op_.protocol.start(op_.result.op);
  obs::flight(obs::FlightKind::kArrival, op_.result.op, us(op_.start), -1,
              static_cast<std::uint64_t>(id_));
  start_attempt();
}

void SimClient::start_attempt() {
  // Epoch mode probes under the client's own (possibly stale) view.
  const QuorumFamily* family = op_.family;
  const MembershipView* view = nullptr;
  if (family == nullptr) {
    const EpochEntry& entry = epochs_->schedule->entry(view_epoch_);
    family = entry.family.get();
    view = &entry.view;
  }
  // Each attempt gathers fresh evidence; only num_probes/attempts carry
  // over, so the result reflects the final attempt's world view.
  AcquisitionResult& r = op_.result;
  r.probed = SignedSet(family->universe_size());
  r.quorum = SignedSet(family->universe_size());
  // Beacon check: the beacon is an arbitrary node outside the client's
  // domain, so during a partition it is unreachable with probability equal
  // to the partitioned fraction.
  const double now = sim_->now();
  r.filtered = config_.use_partition_filter &&
               net_->client_partition_active(id_, now) &&
               rng_.bernoulli(net_->client_partition_fraction(id_, now));
  if (r.filtered) {
    op_.strategy.reset();
    op_.protocol.begin_attempt(nullptr, nullptr, view);
    // The failed beacon check costs one timeout before the attempt
    // resolves (and can then be retried like any other failure).
    after(current_probe_timeout(), {.kind = SimEvent::Kind::kFilterTimeout});
    return;
  }
  op_.strategy = family->make_probe_strategy();
  op_.strategy_rng = rng_.split(next_seq_ * 2 + 1);
  op_.protocol.begin_attempt(op_.strategy.get(), &op_.strategy_rng, view);
  issue_next_probe();
}

void SimClient::issue_next_probe() {
  if (!op_.protocol.probing()) {
    finish_attempt();
    return;
  }
  if (config_.op_deadline > 0.0 &&
      sim_->now() - op_.start >= config_.op_deadline) {
    op_.result.deadline_exceeded = true;
    finish_attempt();
    return;
  }
  op_.probe = op_.protocol.next();
  op_.pending_seq = ++next_seq_;
  op_.probe_sent_at = sim_->now();
  send(op_.probe.replica, {.kind = SimEvent::Kind::kProbeRequest,
                           .flag = op_.protocol.view() != nullptr,
                           .object = op_.object,
                           .probe = op_.pending_seq});
  after(current_probe_timeout(),
        {.kind = SimEvent::Kind::kProbeTimeout, .probe = op_.pending_seq});
}

void SimClient::on_event(const SimEvent& ev) {
  using Kind = SimEvent::Kind;
  const double now = sim_->now();
  AcquisitionResult& r = op_.result;
  const RegisterOp::Probe p = op_.probe;
  switch (ev.kind) {
    case Kind::kProbeRequest: {
      Replica& s = server(ev.replica);
      if (ev.flag && s.fences_requests() && s.up(now)) {
        // Epoch fence: the retired server answers — at normal cost — with
        // a rejection carrying the current epoch instead of register state.
        after(s.service_time(now), {.kind = Kind::kFenceServed,
                                    .replica = ev.replica,
                                    .probe = ev.probe});
        return;
      }
      const auto reply = s.read(now, ev.object, id_);
      if (!reply.has_value()) return;  // server crashed: no reply
      // Retirement is sampled AT SERVE TIME and carried with the reply: the
      // server may retire (or a fresh one take its slot) before the op
      // finishes, and only a reply actually served while retired counts as
      // a retired read.
      const bool was_retired = s.retired();
      // Service delay, then the reply leg.
      after(s.service_time(now), {.kind = Kind::kProbeServed,
                                  .flag = was_retired,
                                  .replica = ev.replica,
                                  .probe = ev.probe,
                                  .ts = reply->first,
                                  .value = reply->second});
      return;
    }
    case Kind::kProbeServed:
    case Kind::kFenceServed:
    case Kind::kPushServed: {  // service done: the reply leg
      SimEvent reply = ev;
      reply.kind = ev.kind == Kind::kProbeServed   ? Kind::kProbeReply
                   : ev.kind == Kind::kFenceServed ? Kind::kFenceReply
                                                   : Kind::kPushAck;
      return send(ev.replica, reply);
    }
    case Kind::kFenceReply:
      if (!resolve(ev.probe)) return;
      ++epoch_rejects_;
      r.probed.add_negative(p.index);
      op_.protocol.fence(p, us(op_.probe_sent_at), server(p.replica).epoch());
      return issue_next_probe();
    case Kind::kProbeReply: {
      if (!resolve(ev.probe)) return;
      const double rtt = now - op_.probe_sent_at;
      if (config_.adaptive_timeout) {
        ewma_rtt_ = have_rtt_ ? (1.0 - config_.ewma_gain) * ewma_rtt_ +
                                    config_.ewma_gain * rtt
                              : rtt;
        have_rtt_ = true;
      }
      r.probed.add_positive(p.index);
      op_.protocol.reply(p, us(op_.probe_sent_at), us(rtt), ev.ts, ev.value,
                         ev.flag, server(p.replica).epoch());
      return issue_next_probe();
    }
    case Kind::kProbeTimeout:
      if (!resolve(ev.probe)) return;
      r.probed.add_negative(p.index);
      op_.protocol.miss(p, us(op_.probe_sent_at), us(now - op_.probe_sent_at));
      return issue_next_probe();
    case Kind::kFilterTimeout: return finish_attempt();
    case Kind::kViewFetched:
      learn_view();
      return start_attempt();
    case Kind::kRetry: return start_attempt();
    case Kind::kLearnView: return learn_view();
    case Kind::kPushRequest: {
      Replica& s = server(ev.replica);
      if (!s.write(now, ev.ts, ev.value, ev.object)) return;
      return after(s.service_time(now), {.kind = Kind::kPushServed,
                                         .replica = ev.replica,
                                         .probe = ev.probe});
    }
    case Kind::kPushAck:
    case Kind::kPushTimeout:
      return resolve_push(ev.replica, ev.probe, ev.kind == Kind::kPushAck);
    case Kind::kRepair:
      server(ev.replica).write(now, ev.ts, ev.value, ev.object);
      return;
    default: assert(false && "not a client event");
  }
}

void SimClient::finish_attempt() {
  RegisterOp& op = op_.protocol;
  AcquisitionResult& r = op_.result;
  r.acquired = op.acquired();
  if (r.acquired) r.quorum = op_.strategy->acquired_quorum();
  r.num_probes = op.num_probes();
  if (r.filtered)
    obs::flight(obs::FlightKind::kFiltered, r.op, us(sim_->now()), -1,
                static_cast<std::uint64_t>(id_));
  const int current = epochs_ != nullptr ? epochs_->current : 0;
  // Whether a follow-up after `delay` could still start inside the deadline.
  const auto fits = [&](double delay) {
    return config_.op_deadline <= 0.0 ||
           (sim_->now() - op_.start) + delay < config_.op_deadline;
  };
  // Stale-view recovery: the fetch is a fixed-delay round trip (no rng
  // draw) and does not consume an acquisition attempt.
  if (!r.deadline_exceeded && op.should_fetch_view(current, view_epoch_) &&
      fits(config_.view_fetch_delay)) {
    op.note_view_fetch(us(sim_->now()), current);
    after(config_.view_fetch_delay, {.kind = SimEvent::Kind::kViewFetched});
    return;
  }
  if (!r.acquired && !r.deadline_exceeded &&
      r.attempts < config_.max_attempts) {
    double backoff = config_.backoff_base * std::ldexp(1.0, r.attempts - 1);
    if (config_.backoff_jitter > 0.0)
      backoff *= 1.0 + config_.backoff_jitter * rng_.next_double();
    if (fits(backoff)) {
      ++r.attempts;
      ClientMetrics::get().retries.add(1);
      obs::instant_op("sim", "client_retry", r.op, "client",
                      static_cast<std::uint64_t>(id_));
      obs::flight(obs::FlightKind::kRetry, r.op, us(sim_->now()), -1,
                  static_cast<std::uint64_t>(r.attempts));
      after(backoff, {.kind = SimEvent::Kind::kRetry});
      return;
    }
  }
  if (r.deadline_exceeded) {
    ClientMetrics::get().deadline_exceeded.add(1);
    obs::instant_op("sim", "client_deadline_exceeded", r.op, "client",
                    static_cast<std::uint64_t>(id_));
    obs::flight(obs::FlightKind::kDeadline, r.op, us(sim_->now()));
  }
  // The op's evidence refreshes the view asynchronously, so the *next* op
  // probes the current membership.
  if (op.finish(us(sim_->now()), current, view_epoch_))
    after(config_.view_fetch_delay, {.kind = SimEvent::Kind::kLearnView});
  r.latency = sim_->now() - op_.start;
  switch (op_.done.index()) {  // Done's alternatives: acquire, read, write
    case 1: complete(r); return;
    case 2: finish_read(); return;
    default: finish_write(); return;
  }
}

void SimClient::learn_view() {
  if (epochs_->current > view_epoch_) {
    view_epoch_ = epochs_->current;
    ++view_refreshes_;
  }
}

template <class Result>
void SimClient::complete(const Result& result) {
  // The callback may start this client's next op, so the op ends first;
  // `result` is copied into the callback's parameter before it runs.
  const auto done =
      std::get<std::function<void(Result)>>(std::exchange(op_.done, {}));
  done(result);
}

void SimClient::finish_read() {
  ReadResult result;
  static_cast<OpReport&>(result) = op_.result;
  // Max-timestamp value over every reached probed server (S+), per the
  // Sect. 4 client requirement — or, under a lie tolerance, only a pair
  // vouched for by more servers than can lie; no such pair fails the read
  // rather than returning a possible fabrication. A failed acquisition
  // decides nothing.
  const RegisterOp& op = op_.protocol;
  const ReplyTally::Decision d = op.decide();
  result.ok = d.ok;
  result.timestamp = d.ts;
  result.value = d.value;
  // No-read-from-retired-server accounting: adopting state served by a
  // replica outside the membership is exactly the silent stale read
  // reconfiguration fencing exists to prevent; only the
  // serve_while_retired bug switch can get here.
  if (d.ok && d.retired_index >= 0) {
    ++retired_reads_;
    obs::flight(obs::FlightKind::kRetiredRead, result.op, us(sim_->now()),
                op.replica(d.retired_index), result.timestamp.counter);
  }
  if (config_.read_repair && result.ok) {
    // Fire-and-forget write-back to stale reached servers.
    const ReplyTally& replies = op.tally();
    for (int i = 0; i < replies.size(); ++i) {
      if (!replies.reached(i) || !(replies.timestamp(i) < result.timestamp))
        continue;
      send(op.replica(i), {.kind = SimEvent::Kind::kRepair,
                           .object = op_.object,
                           .ts = result.timestamp,
                           .value = result.value});
    }
  }
  complete(result);
}

void SimClient::finish_write() {
  WriteResult& result = op_.written;
  result = WriteResult{};
  static_cast<OpReport&>(result) = op_.result;
  // Under a lie tolerance the new timestamp grows from a voted pair only,
  // so a liar's inflated counter never enters the genuine timestamp order;
  // no voted pair fails the write without pushing anything.
  const ReplyTally::Decision d = op_.protocol.decide();
  result.ok = d.ok;
  if (!d.ok) {
    complete(result);
    return;
  }
  result.timestamp = Timestamp{d.ts.counter + 1, id_};

  // Push the new value to every reached probed server; complete when all
  // acks arrive or time out.
  const auto targets = op_.result.probed.positive().to_indices();
  assert(!targets.empty() && "an acquired quorum has a reached server");
  op_.pushes_left = static_cast<int>(targets.size());
  op_.push_resolved.assign(servers_->size(), 0);
  // The op's start as the write saw it (now - latency, not op_.start: the
  // two can differ in the last bit).
  op_.start = sim_->now() - op_.result.latency;
  op_.push_start = sim_->now();
  for (std::size_t idx : targets) {
    const int replica = op_.protocol.replica(static_cast<int>(idx));
    send(replica, {.kind = SimEvent::Kind::kPushRequest,
                   .object = op_.object,
                   .probe = result.op,
                   .ts = result.timestamp,
                   .value = op_.value});
    after(current_probe_timeout(), {.kind = SimEvent::Kind::kPushTimeout,
                                    .replica = replica,
                                    .probe = result.op});
  }
}

void SimClient::resolve_push(int replica, std::uint64_t op, bool acked) {
  if (op != op_.written.op) return;  // a push of an earlier write
  char& resolved = op_.push_resolved[static_cast<std::size_t>(replica)];
  if (resolved) return;  // its ack and timeout race; the first one counts
  resolved = 1;
  obs::flight(acked ? obs::FlightKind::kWriteAck : obs::FlightKind::kWriteNack,
              op, us(op_.push_start), replica,
              us(sim_->now() - op_.push_start));
  if (acked) ++op_.written.acks;
  if (--op_.pushes_left == 0) {
    op_.written.latency = sim_->now() - op_.start;
    complete(op_.written);
  }
}

}  // namespace sqs
