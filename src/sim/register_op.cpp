#include "sim/register_op.h"

#include <algorithm>
#include <cstdio>

namespace sqs {

bool RegisterProtocolConfig::validate(const char* who) const {
  bool ok = true;
  const auto reject = [&ok, who](const char* what, double value) {
    std::fprintf(stderr, "%s: invalid %s %g\n", who, what, value);
    ok = false;
  };
  if (!(probe_timeout > 0.0)) reject("probe_timeout", probe_timeout);
  if (lie_tolerance < 0) reject("lie_tolerance", lie_tolerance);
  if (!(view_fetch_delay >= 0.0)) reject("view_fetch_delay", view_fetch_delay);
  if (max_view_fetches < 0) reject("max_view_fetches", max_view_fetches);
  return ok;
}

void RegisterOp::start(obs::OpId op) {
  op_ = op;
  num_probes_ = 0;
  view_fetches_ = 0;
}

void RegisterOp::begin_attempt(ProbeStrategy* strategy, Rng* rng,
                               const MembershipView* view) {
  strategy_ = strategy;
  view_ = view;
  saw_newer_epoch_ = false;
  if (strategy != nullptr) strategy->reset(rng);
  tally_.reset(strategy != nullptr ? strategy->universe_size() : 0);
}

RegisterOp::Probe RegisterOp::next() {
  ++num_probes_;
  const int index = strategy_->next_server();
  return {index, replica(index)};
}

void RegisterOp::reply(Probe p, std::uint64_t sent_us, std::uint64_t rtt_us,
                       const Timestamp& ts, std::uint64_t value,
                       bool from_retired, int replica_epoch) {
  obs::flight(obs::FlightKind::kProbe, op_, sent_us, p.replica, rtt_us);
  // Every reply is stamped with the server's epoch: a live server serves a
  // stale-view client but tells it the world has moved on.
  if (view_ != nullptr && replica_epoch > view_->epoch) saw_newer_epoch_ = true;
  tally_.add(p.index, ts, value, from_retired);
  strategy_->observe(p.index, true);
}

void RegisterOp::fence(Probe p, std::uint64_t sent_us, int replica_epoch) {
  obs::flight(obs::FlightKind::kEpochFenced, op_, sent_us, p.replica,
              static_cast<std::uint64_t>(replica_epoch));
  // A fence is negative evidence for this view's quorum — the retired
  // server never counts toward it again — and proof of a newer epoch.
  saw_newer_epoch_ = true;
  strategy_->observe(p.index, false);
}

void RegisterOp::miss(Probe p, std::uint64_t sent_us, std::uint64_t spent_us) {
  obs::flight(obs::FlightKind::kProbeMiss, op_, sent_us, p.replica, spent_us);
  strategy_->observe(p.index, false);
}

bool RegisterOp::should_fetch_view(int current_epoch, int view_epoch) const {
  return !acquired() && has_evidence(current_epoch, view_epoch) &&
         view_fetches_ < config_.max_view_fetches;
}

void RegisterOp::note_view_fetch(std::uint64_t at_us, int epoch) {
  ++view_fetches_;
  obs::flight(obs::FlightKind::kViewRefresh, op_, at_us, -1,
              static_cast<std::uint64_t>(epoch));
}

bool RegisterOp::finish(std::uint64_t at_us, int current_epoch,
                        int view_epoch) {
  const bool learn = has_evidence(current_epoch, view_epoch);
  if (learn)
    obs::flight(obs::FlightKind::kViewRefresh, op_, at_us, -1,
                static_cast<std::uint64_t>(current_epoch));
  obs::flight(acquired() ? obs::FlightKind::kQuorumAcquired
                         : obs::FlightKind::kQuorumFailed,
              op_, at_us, -1, static_cast<std::uint64_t>(num_probes_));
  return learn;
}

void RegisterAudit::record_write(const Timestamp& ts, std::uint64_t value,
                                 bool acked, double finish) {
  genuine_.insert({ts.counter, ts.writer, value});
  if (acked) max_acked_ = std::max(max_acked_, ts);
  pending_.push(PendingWrite{finish, ts});
}

Timestamp RegisterAudit::frontier(double now) {
  while (!pending_.empty() && pending_.top().finish <= now) {
    frontier_ = std::max(frontier_, pending_.top().ts);
    pending_.pop();
  }
  return frontier_;
}

bool RegisterAudit::genuine(const Timestamp& ts, std::uint64_t value) const {
  return !(Timestamp{} < ts) ||
         genuine_.count({ts.counter, ts.writer, value}) != 0;
}

bool RegisterAudit::lost_acked_write(ReplicaFleet fleet) const {
  if (!(Timestamp{} < max_acked_)) return false;
  for (std::size_t i = 0; i < fleet.size(); ++i)
    if (!fleet[i].retired() && !(fleet[i].timestamp(0) < max_acked_))
      return false;
  return true;
}

}  // namespace sqs
