// The served replica: a Replica (sim/server.h — failure process, fault
// windows, lies, epoch membership, register cells and counts) plus what a
// served workload needs that the discrete-event simulation does not: a
// single-server FIFO queue and a certificate on every read reply.
//
// Queueing is accounted on the *op-arrival* clock `qnow` (monotone across
// the served stream): the backlog starts at max(qnow, busy_until), runs one
// service_time, and the induced wait is added to the reply's completion.
// Charging the queue on the monotone arrival clock rather than the
// probe-delivery time keeps the backlog a stable M/G/1-style process —
// probe timelines extend past later arrivals (sequential probing plus
// timeouts), and feeding those late times back into busy_until would let
// one slow op inflate the next op's queue wait, a feedback loop that
// collapses the service far below its real capacity. This way per-replica
// utilization turns into queueing delay and the latency curve rises toward
// saturation instead of staying flat (the load half of the paper's
// availability/load trade-off, measured not asserted).

#pragma once

#include <cstdint>
#include <optional>

#include "sim/server.h"

namespace sqs {

class ServiceReplica : public Replica {
 public:
  using Replica::Replica;

  struct ReadServed {
    double done = 0.0;  // completion time (queueing + service included)
    Timestamp ts;
    std::uint64_t value = 0;
    // Replica certificate over the replica's TRUE stored (ts, value) — see
    // service/message.h replica_cert. While lying, ts/value above may be
    // fabricated but the cert still signs the genuine state (signatures are
    // unforgeable in-model), so a verifying runner catches the mismatch.
    std::uint32_t cert = 0;
  };

  // A read/probe of `object` delivered at `now`, issued by an op that
  // arrived at `qnow` (<= now, monotone across ops): nullopt if the replica
  // is down (request dropped) or fenced, otherwise the register contents and
  // the time the reply leaves the replica (now + queue wait + service time).
  // `client` feeds the equivocation lie mode (lies only to odd clients).
  std::optional<ReadServed> serve_read(int object, double now, double qnow,
                                       int client = -1);

  // A write delivered at `now` from an op that arrived at `qnow`: applies
  // (ts, value) if ts advances the register, acks either way; nullopt if
  // down or fenced. Returns the time the ack leaves the replica. Under the
  // fabricate-ack lie the ack is returned but the state is dropped.
  std::optional<double> serve_write(const Timestamp& ts, std::uint64_t value,
                                    int object, double now, double qnow);

  // Epoch fence: a retired replica answers — at normal queueing cost — with
  // a rejection carrying its epoch instead of register state; nullopt if
  // down (a fence is an answer, so it queues like one).
  std::optional<double> serve_fence(double now, double qnow);

  // Total seconds of service time performed — utilization evidence for the
  // load report (busy fraction = busy_seconds / elapsed virtual time).
  double busy_seconds() const { return busy_seconds_; }
  // Queue backlog (seconds of queued work) as seen at time `now`; feeds the
  // timeline's queue_max_us series.
  double backlog(double now) const {
    return busy_until_ > now ? busy_until_ - now : 0.0;
  }

 private:
  // Returns the queue wait + service span to add after `now`; advances the
  // backlog on the monotone `qnow` clock.
  double begin_service(double now, double qnow);

  double busy_until_ = 0.0;
  double busy_seconds_ = 0.0;
};

}  // namespace sqs
