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

struct SimClient::Acquisition {
  explicit Acquisition(const RegisterProtocolConfig& config) : op(config) {}
  // Null in epoch mode: each attempt resolves the family from the view.
  const QuorumFamily* family = nullptr;
  RegisterOp op;
  std::unique_ptr<ProbeStrategy> strategy;
  AcquisitionResult result;
  double op_start = 0.0;
  double probe_sent_at = 0.0;
  std::uint64_t pending_seq = 0;  // id of the in-flight probe; 0 = none
  int object = 0;
  std::function<void(Acquisition&)> done;
  Rng strategy_rng;

  // True for the first outcome of probe `seq` (a reply races its timeout).
  bool resolve(std::uint64_t seq) {
    if (pending_seq != seq) return false;
    pending_seq = 0;
    return true;
  }
};

SimClient::SimClient(Simulator* sim, Network* net,
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
      epochs_(epochs) {}

double SimClient::current_probe_timeout() const {
  if (!config_.adaptive_timeout || !have_rtt_) return config_.probe_timeout;
  return std::clamp(config_.timeout_multiplier * ewma_rtt_,
                    config_.min_probe_timeout, config_.max_probe_timeout);
}

void SimClient::acquire(std::function<void(AcquisitionResult)> done) {
  start_op(default_family(), /*object=*/0,
           [done = std::move(done)](Acquisition& a) { done(a.result); });
}

void SimClient::acquire(const QuorumFamily& family, int object,
                        std::function<void(AcquisitionResult)> done) {
  start_op(&family, object,
           [done = std::move(done)](Acquisition& a) { done(a.result); });
}

void SimClient::start_op(const QuorumFamily* family, int object,
                         std::function<void(Acquisition&)> done) {
  auto acq = std::make_shared<Acquisition>(config_);
  acq->family = family;
  acq->op_start = sim_->now();
  acq->object = object;
  acq->done = std::move(done);
  acq->result.op = obs::make_op_id(1 + static_cast<std::uint32_t>(id_),
                                   next_op_++);
  acq->op.start(acq->result.op);
  obs::flight(obs::FlightKind::kArrival, acq->result.op, us(acq->op_start), -1,
              static_cast<std::uint64_t>(id_));
  start_attempt(std::move(acq));
}

void SimClient::start_attempt(std::shared_ptr<Acquisition> acq) {
  // Epoch mode probes under the client's own (possibly stale) view.
  const QuorumFamily* family = acq->family;
  const MembershipView* view = nullptr;
  if (family == nullptr) {
    const EpochEntry& entry = epochs_->schedule->entry(view_epoch_);
    family = entry.family.get();
    view = &entry.view;
  }
  // Each attempt gathers fresh evidence; only num_probes/attempts carry
  // over, so the result reflects the final attempt's world view.
  acq->result.probed = SignedSet(family->universe_size());
  acq->result.quorum = SignedSet(family->universe_size());
  // Beacon check: the beacon is an arbitrary node outside the client's
  // domain, so during a partition it is unreachable with probability equal
  // to the partitioned fraction.
  acq->result.filtered =
      config_.use_partition_filter && net_->client_partition_active(id_) &&
      rng_.bernoulli(net_->client_partition_fraction(id_));
  if (acq->result.filtered) {
    acq->strategy.reset();
    acq->op.begin_attempt(nullptr, nullptr, view);
    // The failed beacon check costs one timeout before the attempt
    // resolves (and can then be retried like any other failure).
    sim_->schedule(current_probe_timeout(),
                   [this, acq] { finish_attempt(acq); });
    return;
  }
  acq->strategy = family->make_probe_strategy();
  acq->strategy_rng = rng_.split(next_seq_ * 2 + 1);
  acq->op.begin_attempt(acq->strategy.get(), &acq->strategy_rng, view);
  issue_next_probe(std::move(acq));
}

void SimClient::issue_next_probe(std::shared_ptr<Acquisition> acq) {
  if (!acq->op.probing()) {
    finish_attempt(std::move(acq));
    return;
  }
  if (config_.op_deadline > 0.0 &&
      sim_->now() - acq->op_start >= config_.op_deadline) {
    acq->result.deadline_exceeded = true;
    finish_attempt(std::move(acq));
    return;
  }

  const RegisterOp::Probe p = acq->op.next();
  const std::uint64_t seq = ++next_seq_;
  acq->pending_seq = seq;
  acq->probe_sent_at = sim_->now();
  Replica* const s = &(*servers_)[static_cast<std::size_t>(p.replica)];

  // Request leg.
  net_->send(id_, p.replica, Network::Direction::kToServer,
             [this, acq, seq, p, s] {
    if (acq->op.view() && s->fences_requests() && s->up(sim_->now())) {
      // Epoch fence: the retired server answers — at normal cost — with a
      // rejection carrying the current epoch instead of register state.
      sim_->schedule(s->service_time(sim_->now()), [this, acq, seq, p, s] {
        net_->send(id_, p.replica, Network::Direction::kToClient,
                   [this, acq, seq, p, s] {
          if (!acq->resolve(seq)) return;
          ++epoch_rejects_;
          acq->result.probed.add_negative(p.index);
          acq->op.fence(p, us(acq->probe_sent_at), s->epoch());
          issue_next_probe(acq);
        });
      });
      return;
    }
    const auto reply = s->read(sim_->now(), acq->object, id_);
    if (!reply.has_value()) return;  // server crashed: no reply
    // Retirement is sampled AT SERVE TIME and carried with the reply: the
    // server may retire (or a fresh one take its slot) before the op
    // finishes, and only a reply actually served while retired counts as a
    // retired read.
    const bool was_retired = s->retired();
    // Service delay, then the reply leg.
    sim_->schedule(s->service_time(sim_->now()),
                   [this, acq, seq, p, s, reply = *reply, was_retired] {
      net_->send(id_, p.replica, Network::Direction::kToClient,
                 [this, acq, seq, p, s, reply, was_retired] {
        if (!acq->resolve(seq)) return;
        const double rtt = sim_->now() - acq->probe_sent_at;
        if (config_.adaptive_timeout) {
          ewma_rtt_ = have_rtt_ ? (1.0 - config_.ewma_gain) * ewma_rtt_ +
                                      config_.ewma_gain * rtt
                                : rtt;
          have_rtt_ = true;
        }
        acq->result.probed.add_positive(p.index);
        acq->op.reply(p, us(acq->probe_sent_at), us(rtt), reply.first,
                      reply.second, was_retired, s->epoch());
        issue_next_probe(acq);
      });
    });
  });

  // Timeout leg.
  sim_->schedule(current_probe_timeout(), [this, acq, seq, p] {
    if (!acq->resolve(seq)) return;
    acq->result.probed.add_negative(p.index);
    acq->op.miss(p, us(acq->probe_sent_at),
                 us(sim_->now() - acq->probe_sent_at));
    issue_next_probe(acq);
  });
}

void SimClient::finish_attempt(std::shared_ptr<Acquisition> acq) {
  RegisterOp& op = acq->op;
  AcquisitionResult& r = acq->result;
  r.acquired = op.acquired();
  if (r.acquired) r.quorum = acq->strategy->acquired_quorum();
  r.num_probes = op.num_probes();
  if (r.filtered)
    obs::flight(obs::FlightKind::kFiltered, r.op, us(sim_->now()), -1,
                static_cast<std::uint64_t>(id_));
  const int current = epochs_ != nullptr ? epochs_->current : 0;
  // Whether a follow-up after `delay` could still start inside the deadline.
  const auto fits = [&](double delay) {
    return config_.op_deadline <= 0.0 ||
           (sim_->now() - acq->op_start) + delay < config_.op_deadline;
  };
  // Stale-view recovery: the fetch is a fixed-delay round trip (no rng
  // draw) and does not consume an acquisition attempt.
  if (!r.deadline_exceeded && op.should_fetch_view(current, view_epoch_) &&
      fits(config_.view_fetch_delay)) {
    op.note_view_fetch(us(sim_->now()), current);
    sim_->schedule(config_.view_fetch_delay, [this, acq] {
      learn_view();
      start_attempt(acq);
    });
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
      sim_->schedule(backoff, [this, acq] { start_attempt(acq); });
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
    sim_->schedule(config_.view_fetch_delay, [this] { learn_view(); });
  r.latency = sim_->now() - acq->op_start;
  acq->done(*acq);
}

void SimClient::learn_view() {
  if (epochs_->current > view_epoch_) {
    view_epoch_ = epochs_->current;
    ++view_refreshes_;
  }
}

void SimClient::read(std::function<void(ReadResult)> done) {
  start_op(default_family(), /*object=*/0,
           [this, done = std::move(done)](Acquisition& a) {
             finish_read(a, done);
           });
}

void SimClient::read(const QuorumFamily& family, int object,
                     std::function<void(ReadResult)> done) {
  start_op(&family, object, [this, done = std::move(done)](Acquisition& a) {
    finish_read(a, done);
  });
}

void SimClient::finish_read(const Acquisition& acq,
                            const std::function<void(ReadResult)>& done) {
  ReadResult result;
  static_cast<OpReport&>(result) = acq.result;
  // Max-timestamp value over every reached probed server (S+), per the
  // Sect. 4 client requirement — or, under a lie tolerance, only a pair
  // vouched for by more servers than can lie; no such pair fails the read
  // rather than returning a possible fabrication. A failed acquisition
  // decides nothing.
  const ReplyTally::Decision d = acq.op.decide();
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
                acq.op.replica(d.retired_index), result.timestamp.counter);
  }
  if (config_.read_repair && result.ok) {
    // Fire-and-forget write-back to stale reached servers.
    const ReplyTally& replies = acq.op.tally();
    for (int i = 0; i < replies.size(); ++i) {
      if (!replies.reached(i) || !(replies.timestamp(i) < result.timestamp))
        continue;
      const int server = acq.op.replica(i);
      net_->send(id_, server, Network::Direction::kToServer,
                 [this, server, object = acq.object, ts = result.timestamp,
                  value = result.value] {
                   (*servers_)[static_cast<std::size_t>(server)].write(
                       sim_->now(), ts, value, object);
                 });
    }
  }
  done(result);
}

void SimClient::write(std::uint64_t value, std::function<void(WriteResult)> done) {
  start_op(default_family(), /*object=*/0,
           [this, value, done = std::move(done)](Acquisition& a) {
             finish_write(a, value, done);
           });
}

void SimClient::write(const QuorumFamily& family, int object,
                      std::uint64_t value,
                      std::function<void(WriteResult)> done) {
  start_op(&family, object,
           [this, value, done = std::move(done)](Acquisition& a) {
             finish_write(a, value, done);
           });
}

void SimClient::finish_write(const Acquisition& acq, std::uint64_t value,
                             const std::function<void(WriteResult)>& done) {
  WriteResult result;
  static_cast<OpReport&>(result) = acq.result;
  // Under a lie tolerance the new timestamp grows from a voted pair only,
  // so a liar's inflated counter never enters the genuine timestamp order;
  // no voted pair fails the write without pushing anything.
  const ReplyTally::Decision d = acq.op.decide();
  result.ok = d.ok;
  if (!d.ok) {
    done(result);
    return;
  }
  result.timestamp = Timestamp{d.ts.counter + 1, id_};

  // Push the new value to every reached probed server; complete when all
  // acks arrive or time out.
  auto state = std::make_shared<std::pair<int, WriteResult>>(0, result);
  const auto targets = acq.result.probed.positive().to_indices();
  assert(!targets.empty() && "an acquired quorum has a reached server");
  state->first = static_cast<int>(targets.size());
  const double start = sim_->now() - acq.result.latency;
  auto finish_one = [this, state, done, start](bool acked) {
    if (acked) ++state->second.acks;
    if (--state->first == 0) {
      state->second.latency = sim_->now() - start;
      done(state->second);
    }
  };
  for (std::size_t idx : targets) {
    const int server = acq.op.replica(static_cast<int>(idx));
    auto resolved = std::make_shared<bool>(false);
    const double push_start = sim_->now();
    const obs::OpId op = result.op;
    net_->send(id_, server, Network::Direction::kToServer,
               [this, server, object = acq.object, ts = result.timestamp,
                value, resolved, finish_one, push_start, op] {
                 Replica& s = (*servers_)[static_cast<std::size_t>(server)];
                 if (!s.write(sim_->now(), ts, value, object)) return;
                 sim_->schedule(s.service_time(sim_->now()),
                                [this, server, resolved, finish_one,
                                 push_start, op] {
                   net_->send(id_, server, Network::Direction::kToClient,
                              [this, server, resolved, finish_one, push_start,
                               op] {
                                if (*resolved) return;
                                *resolved = true;
                                obs::flight(obs::FlightKind::kWriteAck, op,
                                            us(push_start), server,
                                            us(sim_->now() - push_start));
                                finish_one(true);
                              });
                 });
               });
    sim_->schedule(current_probe_timeout(), [this, server, resolved,
                                             finish_one, push_start, op] {
      if (*resolved) return;
      *resolved = true;
      obs::flight(obs::FlightKind::kWriteNack, op, us(push_start), server,
                  us(sim_->now() - push_start));
      finish_one(false);
    });
  }
}

}  // namespace sqs
