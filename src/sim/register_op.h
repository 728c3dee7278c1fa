// The register protocol's client side, sans I/O: one operation's decisions
// (RegisterOp), the register's safety evidence (RegisterAudit) and the
// knobs both drivers share (RegisterProtocolConfig). The simulator client
// (sim/client) and the service runner (service/runner) run the same code;
// each keeps only its I/O and its clock and passes every time in.
//
// An operation (the paper's Sect. 4 client) probes servers into a signed
// set S+/S- under a ProbeStrategy, adopts the highest-timestamped reply
// from S+ — or, under a lie tolerance b, the Malkhi–Reiter–Wool b+1 vote —
// and a write pushes the grown timestamp to all of S+. In epoch mode a
// fenced probe or a reply stamped with a newer epoch is evidence that the
// view is stale: a failed attempt with evidence fetches the current view
// and re-probes (bounded per op), a finished op learns it for the next one.

#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "core/epoch.h"
#include "core/probe_strategy.h"
#include "obs/recorder.h"
#include "sim/server.h"

namespace sqs {

struct RegisterProtocolConfig {
  double probe_timeout = 0.25;  // seconds a probe waits for its reply
  // Masking vote (ReplyTally::decide): when > 0, up to this many servers may
  // lie, so a read adopts only the highest-timestamped pair reported
  // identically by >= lie_tolerance+1 replies and a write grows its
  // timestamp from such a pair; no voted pair fails the op instead of
  // returning a possible fabrication. 0 keeps the fail-stop max-timestamp
  // fold — exactly what a Byzantine plan exploits against a non-masking
  // family.
  int lie_tolerance = 0;
  // Stale views (epoch mode only): a failed attempt with epoch evidence
  // fetches the current view — a fixed view_fetch_delay round trip, no rng
  // draw, so churn stays stream-neutral — and re-probes under the new
  // family, at most max_view_fetches times per op; a finished op with
  // evidence learns the view for the next op. refresh_views = false leaves
  // the client stale forever — the designed-to-fail chaos scenario.
  bool refresh_views = true;
  double view_fetch_delay = 0.05;
  int max_view_fetches = 4;

  // True iff every knob is usable; complaints go to stderr as
  // "<who>: invalid <field> <value>", one line per bad field.
  bool validate(const char* who) const;
};

class RegisterOp {
 public:
  struct Probe {
    int index;    // the family index the strategy probes
    int replica;  // the replica on the wire (index mapped through the view)
  };

  explicit RegisterOp(const RegisterProtocolConfig& config) : config_(config) {}

  // Starts operation `op`: its flights carry the id, and the probe and
  // view-fetch counts restart.
  void start(obs::OpId op);
  // Starts an attempt under `view` (nullptr: family indices are replica
  // ids), resetting `strategy` from `rng` and forgetting the previous
  // attempt's replies and epoch evidence. A null strategy is an attempt the
  // partition filter aborted: it probes nothing and fails.
  void begin_attempt(ProbeStrategy* strategy, Rng* rng,
                     const MembershipView* view);

  bool probing() const { return status() == ProbeStatus::kInProgress; }
  bool acquired() const { return status() == ProbeStatus::kAcquired; }
  // The next probe (counted); only while probing().
  Probe next();

  // Outcomes of probe `p` sent at `sent_us`, each recorded as a flight. A
  // reply joins S+ and the tally (`from_retired`: served by a replica
  // retired at serve time); a fence and a miss are negative evidence, and a
  // fence or a reply from a replica at a newer epoch than the view is
  // evidence the view is stale.
  void reply(Probe p, std::uint64_t sent_us, std::uint64_t rtt_us,
             const Timestamp& ts, std::uint64_t value, bool from_retired,
             int replica_epoch);
  void fence(Probe p, std::uint64_t sent_us, int replica_epoch);
  void miss(Probe p, std::uint64_t sent_us, std::uint64_t spent_us);

  // True when the failed attempt should fetch the view of `current_epoch`
  // and re-probe: it saw evidence, refreshing is on, the per-op bound is
  // not spent, and the driver's `view_epoch` is older.
  bool should_fetch_view(int current_epoch, int view_epoch) const;
  // Counts a fetch of `epoch`'s view, recorded at `at_us`.
  void note_view_fetch(std::uint64_t at_us, int epoch);
  // Ends the op at `at_us` with its quorum flight. True when the driver
  // should learn `current_epoch`'s view for its next op (recorded too).
  bool finish(std::uint64_t at_us, int current_epoch, int view_epoch);
  // The adopted pair of an acquired op; a failed acquisition is not ok.
  ReplyTally::Decision decide() const {
    return acquired() ? tally_.decide(config_.lie_tolerance)
                      : ReplyTally::Decision{};
  }

  int num_probes() const { return num_probes_; }
  const MembershipView* view() const { return view_; }
  int replica(int index) const {
    return view_ != nullptr ? view_->members[static_cast<std::size_t>(index)]
                            : index;
  }
  // The current attempt's replies, in family-index space.
  const ReplyTally& tally() const { return tally_; }

 private:
  ProbeStatus status() const {
    return strategy_ != nullptr ? strategy_->status() : ProbeStatus::kNoQuorum;
  }
  bool has_evidence(int current_epoch, int view_epoch) const {
    return view_ != nullptr && saw_newer_epoch_ && config_.refresh_views &&
           current_epoch > view_epoch;
  }

  RegisterProtocolConfig config_;
  obs::OpId op_ = obs::kNoOp;
  ProbeStrategy* strategy_ = nullptr;
  const MembershipView* view_ = nullptr;
  ReplyTally tally_;
  int num_probes_ = 0;
  int view_fetches_ = 0;
  bool saw_newer_epoch_ = false;
};

// The register's safety evidence: the genuine (ts, value) bindings, the
// completed-write frontier and the highest acked write.
class RegisterAudit {
 public:
  // An ok write of (ts, value) that completes at `finish`; `acked` when at
  // least one replica acked it.
  void record_write(const Timestamp& ts, std::uint64_t value, bool acked,
                    double finish);
  // The highest timestamp among writes completed by `now`; a read returning
  // less is stale.
  Timestamp frontier(double now);
  // True iff an ok read of (ts, value) returned the unwritten register or a
  // binding some recorded write produced (the no-fabricated-write check).
  bool genuine(const Timestamp& ts, std::uint64_t value) const;
  // True iff some write was acked yet no non-retired replica still holds a
  // timestamp >= the highest acked one. Crashes preserve state, and
  // drain-on-leave must move it off retiring replicas, so only amnesia can
  // make this true.
  bool lost_acked_write(ReplicaFleet fleet) const;
  const Timestamp& max_acked() const { return max_acked_; }

 private:
  struct PendingWrite {
    double finish;
    Timestamp ts;
    bool operator>(const PendingWrite& other) const {
      return finish > other.finish;
    }
  };
  std::priority_queue<PendingWrite, std::vector<PendingWrite>,
                      std::greater<PendingWrite>>
      pending_;
  Timestamp frontier_;
  Timestamp max_acked_;
  std::set<std::tuple<std::uint64_t, int, std::uint64_t>> genuine_;
};

}  // namespace sqs
