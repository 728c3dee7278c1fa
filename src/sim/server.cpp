#include "sim/server.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/epoch.h"
#include "obs/telemetry.h"

namespace sqs {

const char* lie_mode_name(LieMode mode) {
  switch (mode) {
    case LieMode::kNone: return "none";
    case LieMode::kWrongValue: return "wrong_value";
    case LieMode::kStaleTs: return "stale_ts";
    case LieMode::kEquivocate: return "equivocate";
    case LieMode::kFabricateAck: return "fabricate_ack";
  }
  return "unknown";
}

bool ServerConfig::validate() const {
  bool ok = true;
  const auto reject = [&ok](const char* what, double value) {
    std::fprintf(stderr, "ServerConfig: invalid %s %g\n", what, value);
    ok = false;
  };
  if (!(mean_up > 0.0)) reject("mean_up", mean_up);
  if (!(mean_down > 0.0)) reject("mean_down", mean_down);
  if (!(service_time >= 0.0)) reject("service_time", service_time);
  return ok;
}

Replica::Replica(int id, const ServerConfig& config, Rng rng)
    : id_(id), config_(config), rng_(std::move(rng)) {
  up_ = !rng_.bernoulli(config_.stationary_down());
  next_toggle_ =
      rng_.exponential(1.0 / (up_ ? config_.mean_up : config_.mean_down));
}

void Replica::advance_failure_process(double now) const {
  while (next_toggle_ <= now) {
    up_ = !up_;
    if (up_ && config_.amnesia_on_recovery) objects_.clear();
    next_toggle_ +=
        rng_.exponential(1.0 / (up_ ? config_.mean_up : config_.mean_down));
  }
}

bool Replica::up(double now) const {
  // The stochastic process always advances (so it resumes in the right
  // phase when an override lapses), but a forced window decides the
  // answer; crash beats pin-up when both are active.
  advance_failure_process(now);
  if (now < forced_down_until_) return false;
  if (now < forced_up_until_) return true;
  return up_;
}

bool Replica::accept(double now) {
  if (up(now)) return true;
  ++counts_.dropped_requests;
  return false;
}

const Replica::Cell* Replica::serve_cell(double now, int object) {
  // Clients detect the fence before reading and get an explicit epoch
  // rejection; this backstop makes a forgotten check look like a lost reply
  // rather than a stale read.
  if (!accept(now) || fences_requests()) return nullptr;
  const Cell& cell = objects_[object];
  const auto max_it = max_ts_seen_.find(object);
  if (max_it != max_ts_seen_.end() && cell.ts < max_it->second)
    ++counts_.ts_regressions;
  return &cell;
}

std::pair<Timestamp, std::uint64_t> Replica::reported(const Cell& cell,
                                                      double now, int client) {
  if (!lie_active(now) || !lie_corrupts_read(lie_mode_, client))
    return {cell.ts, cell.value};
  ++counts_.lies_told;
  if (lie_mode_ == LieMode::kStaleTs) return {Timestamp{}, 0};
  return {fabricated_timestamp(id_, cell.ts),
          fabricated_value(id_, cell.ts, cell.value)};
}

std::optional<std::pair<Timestamp, std::uint64_t>> Replica::read(double now,
                                                                 int object,
                                                                 int client) {
  const Cell* cell = serve_cell(now, object);
  if (cell == nullptr) return std::nullopt;
  return reported(*cell, now, client);
}

bool Replica::write(double now, const Timestamp& ts, std::uint64_t value,
                    int object) {
  // Retired replicas must not absorb (or ack) writes: an acked write landing
  // only on retired replicas would vanish from the new epoch's quorums.
  if (!accept(now) || fences_requests()) return false;
  if (lie_active(now) && lie_mode_ == LieMode::kFabricateAck) {
    // Ack without applying: the client counts this replica toward write
    // durability, but the state was dropped on the floor.
    ++counts_.lies_told;
    return true;
  }
  adopt_state(ts, value, object);
  return true;
}

void Replica::force_crash(double now, double duration) {
  forced_down_until_ = std::max(forced_down_until_, now + duration);
}

void Replica::force_up(double now, double duration) {
  forced_up_until_ = std::max(forced_up_until_, now + duration);
}

void Replica::set_gray(double factor, double now, double duration) {
  gray_factor_ = factor;
  gray_until_ = now + duration;
}

void Replica::set_lie(LieMode mode, double now, double duration) {
  lie_mode_ = mode;
  lie_until_ = now + duration;
}

void Replica::adopt_state(const Timestamp& ts, std::uint64_t value,
                          int object) {
  Cell& cell = objects_[object];
  if (cell.ts < ts) {
    cell.ts = ts;
    cell.value = value;
    Timestamp& max_seen = max_ts_seen_[object];
    max_seen = std::max(max_seen, ts);
  }
}

Timestamp Replica::timestamp(int object) const {
  auto it = objects_.find(object);
  return it == objects_.end() ? Timestamp{} : it->second.ts;
}

std::uint64_t Replica::value(int object) const {
  auto it = objects_.find(object);
  return it == objects_.end() ? 0 : it->second.value;
}

Timestamp Replica::max_timestamp_seen(int object) const {
  auto it = max_ts_seen_.find(object);
  return it == max_ts_seen_.end() ? Timestamp{} : it->second;
}

ReplicaCounts fleet_counts(ReplicaFleet fleet) {
  ReplicaCounts total;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const ReplicaCounts& c = fleet[i].counts();
    total.dropped_requests += c.dropped_requests;
    total.ts_regressions += c.ts_regressions;
    total.lies_told += c.lies_told;
  }
  return total;
}

void publish_replica_counts(const std::string& prefix,
                            const ReplicaCounts& counts) {
  if (counts.dropped_requests == 0 && counts.ts_regressions == 0 &&
      counts.lies_told == 0)
    return;
  obs::Registry& registry = obs::Registry::instance();
  registry.counter(prefix + ".dropped_requests").add(counts.dropped_requests);
  registry.counter(prefix + ".ts_regressions").add(counts.ts_regressions);
  registry.counter(prefix + ".lies_told").add(counts.lies_told);
}

void apply_epoch_transition(const EpochedFamily& schedule, int epoch,
                            ReplicaFleet fleet) {
  const MembershipView& prev = schedule.entry(epoch - 1).view;
  const MembershipView& next = schedule.entry(epoch).view;
  const auto at = [&fleet](int id) -> Replica& {
    return fleet[static_cast<std::size_t>(id)];
  };
  for (int id : prev.members) {  // drain-on-leave
    if (next.contains(id)) continue;
    const Timestamp ts = at(id).timestamp(0);
    if (!(Timestamp{} < ts)) continue;
    const std::uint64_t value = at(id).value(0);
    for (int dst : next.members) at(dst).adopt_state(ts, value, 0);
  }
  Timestamp best;  // join-sync source: the old view's newest state
  std::uint64_t best_value = 0;
  for (int id : prev.members) {
    if (best < at(id).timestamp(0)) {
      best = at(id).timestamp(0);
      best_value = at(id).value(0);
    }
  }
  for (int id : next.members) {
    if (prev.contains(id) || !(Timestamp{} < best)) continue;
    at(id).adopt_state(best, best_value, 0);
  }
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fleet[i].set_member(next.contains(static_cast<int>(i)));
    fleet[i].set_epoch(epoch);
  }
}

ReplyTally::Decision ReplyTally::decide(int b) const {
  Decision d;
  if (b == 0) {
    d.ok = true;
    for (const Slot& s : slots_) {
      if (s.reached && d.ts < s.ts) {
        d.ts = s.ts;
        d.value = s.value;
      }
    }
  } else {
    // O(n^2) over a small fleet. Two distinct pairs can never both clear
    // b+1 at the same timestamp in-model (that would need b+1 coordinated
    // liars), and the strict `<` keeps the first-seen winner if the model
    // is ever violated.
    const Slot* best = nullptr;
    for (const Slot& cand : slots_) {
      if (!cand.reached || (best != nullptr && !(best->ts < cand.ts)))
        continue;
      int votes = 0;
      for (const Slot& other : slots_)
        if (other.reached && other.ts == cand.ts && other.value == cand.value)
          ++votes;
      if (votes >= b + 1) best = &cand;
    }
    if (best == nullptr) return d;
    d.ok = true;
    d.ts = best->ts;
    d.value = best->value;
  }
  if (!any_retired_) return d;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.reached && s.retired && s.ts == d.ts && s.value == d.value) {
      d.retired_index = static_cast<int>(i);
      break;
    }
  }
  return d;
}

}  // namespace sqs
