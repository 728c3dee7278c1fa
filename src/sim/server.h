// The replicated register's server side and the client's reply tally,
// shared by the discrete-event simulator (sim/client, which passes
// Simulator::now()) and the staged service (service/runner, which passes
// its virtual timeline).
//
// Each Replica alternates exponentially-distributed up and down periods
// (stationary unavailability p = mean_down / (mean_up + mean_down)), chosen
// to match the paper's i.i.d. failure model while letting failures move
// during a run. The process advances lazily and only forward, so callers
// must not let `now` run backwards. A crashed replica drops requests;
// recovery keeps its register state (crash, not amnesia). The replica state
// is a timestamped register value: timestamps are (counter, writer_id)
// pairs ordered lexicographically, the standard ABD tag. Replicas hold one
// register per *object id*, so a single fleet can serve many replicated
// objects (the Sect. 6.3 rotation scenario).
//
// Fault-injection hooks (src/faults): `force_crash` / `force_up` pin the
// replica's availability for a bounded window regardless of the stochastic
// failure process (which keeps advancing underneath and resumes control
// when the override lapses — so a fault plan composes with, rather than
// replaces, background churn), `set_gray` inflates service_time so the
// replica degrades without dropping requests, and `set_lie` corrupts its
// replies. The replica also keeps the highest timestamp it has ever held
// per object — surviving amnesia wipes on purpose — so the chaos harness
// can count reads served below that high-water mark (`ts_regressions`),
// the paper's timestamp-monotonicity invariant made checkable.
//
// A replica keeps plain counts (ReplicaCounts); the simulator harness and
// the service runner each publish them once per run under their own metric
// names (publish_replica_counts).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace sqs {

struct EpochedFamily;

struct Timestamp {
  std::uint64_t counter = 0;
  int writer = -1;

  bool operator<(const Timestamp& other) const {
    if (counter != other.counter) return counter < other.counter;
    return writer < other.writer;
  }
  bool operator==(const Timestamp& other) const {
    return counter == other.counter && writer == other.writer;
  }
};

// --- Byzantine lie model (fault injection) ---------------------------------
//
// A lying server keeps serving — it answers probes and acks writes — but
// its *replies* are corrupted. The corruption is a pure function of the
// liar's id and the genuine register state (no rng draw), so a lie window
// shifts no random stream and a Byzantine plan stays bit-identical at any
// thread count. The genuine cell is never touched: lies live on the wire,
// which is exactly what signed-reply verification and masking votes can
// catch.
enum class LieMode : std::uint8_t {
  kNone = 0,
  kWrongValue,    // inflated timestamp + fabricated value (a write nobody made)
  kStaleTs,       // pretends the register was never written
  kEquivocate,    // truth to even clients, the kWrongValue fabrication to odd
  kFabricateAck,  // acks writes without applying them (reads stay truthful)
};

const char* lie_mode_name(LieMode mode);

// The fabricated timestamp outranks every honest one by a large constant,
// so an unprotected max-timestamp read reliably adopts the lie; the liar
// signs itself as the writer.
inline constexpr std::uint64_t kLieCounterBoost = 1ull << 20;

inline Timestamp fabricated_timestamp(int server, const Timestamp& truth) {
  return Timestamp{truth.counter + kLieCounterBoost +
                       static_cast<std::uint64_t>(server),
                   server};
}

inline std::uint64_t fabricated_value(int server, const Timestamp& truth,
                                      std::uint64_t value) {
  // Distinct per (liar, state): two liars never corroborate each other, so
  // a b+1 vote can never assemble behind a fabrication of b liars.
  return value ^ (0x9E3779B97F4A7C15ull *
                      (static_cast<std::uint64_t>(server) + 2) +
                  truth.counter + 1);
}

// Does `mode` corrupt a read served to `client`? (kEquivocate splits the
// client space by parity; kFabricateAck corrupts only writes.)
inline bool lie_corrupts_read(LieMode mode, int client) {
  switch (mode) {
    case LieMode::kWrongValue: return true;
    case LieMode::kStaleTs: return true;
    case LieMode::kEquivocate: return client >= 0 && client % 2 == 1;
    default: return false;
  }
}

struct ServerConfig {
  double mean_up = 95.0;
  double mean_down = 5.0;  // stationary p = 0.05 with the defaults
  double service_time = 0.001;
  // Amnesia: lose all register state on recovery (no stable storage). The
  // paper assumes crash (state-preserving) failures; amnesia shows what the
  // probabilistic guarantee costs when that assumption is broken too.
  bool amnesia_on_recovery = false;
  // Reconfiguration bug switch: a retired server keeps serving reads and
  // writes instead of fencing them with an epoch rejection. Off is correct
  // behaviour; on exists so the chaos harness can prove its
  // no-read-from-retired-server invariant has teeth.
  bool serve_while_retired = false;
  double stationary_down() const { return mean_down / (mean_up + mean_down); }
  // True iff every duration is usable (positive means and a non-negative
  // service time); complaints go to stderr, one line per bad field.
  bool validate() const;
};

struct ReplicaCounts {
  std::uint64_t dropped_requests = 0;  // requests that arrived while down
  std::uint64_t ts_regressions = 0;    // reads served below max_timestamp_seen
  std::uint64_t lies_told = 0;         // corrupted replies + fabricated acks
};

class Replica {
 public:
  Replica(int id, const ServerConfig& config, Rng rng);

  int id() const { return id_; }

  // True if the replica is up at `now` (forced windows override the
  // stochastic process; crash wins when both are active).
  bool up(double now) const;

  // A read of `object` issued by `client` at `now`: the current (timestamp,
  // value), or nullopt if down (the request is dropped) or fenced. Under an
  // active lie window the *reply* is corrupted per LieMode — the stored cell
  // is untouched.
  std::optional<std::pair<Timestamp, std::uint64_t>> read(double now,
                                                          int object = 0,
                                                          int client = -1);

  // A write of `object` at `now`: applies (ts, value) if ts advances the
  // register and acks (true) either way; false if down or fenced. A
  // kFabricateAck lie window acks without applying.
  bool write(double now, const Timestamp& ts, std::uint64_t value,
             int object = 0);

  // Pins the replica down ("crash") or up ("restart") over
  // [now, now + duration). A window extends, never shortens, an earlier one
  // of the same kind; if both are active, crash wins.
  void force_crash(double now, double duration);
  void force_up(double now, double duration);

  // Gray degradation: service_time is multiplied by `factor` until the
  // window expires (a new call replaces the current window). The replica
  // still answers — slowly enough that clients may time its replies out.
  void set_gray(double factor, double now, double duration);
  bool gray_active(double now) const { return now < gray_until_; }

  // Byzantine lie window: replies are corrupted per `mode` until the window
  // expires (a new call replaces the current window, like set_gray).
  void set_lie(LieMode mode, double now, double duration);
  bool lie_active(double now) const {
    return lie_mode_ != LieMode::kNone && now < lie_until_;
  }

  double service_time(double now) const {
    return config_.service_time * (gray_active(now) ? gray_factor_ : 1.0);
  }

  // --- Epoch membership (reconfiguration, src/core/epoch.h) ---------------
  // Membership and the epoch stamp are set only by apply_epoch_transition;
  // neither touches any rng stream. A replica that is not a member of the
  // current epoch is *retired*: it fences requests with an epoch rejection
  // (observable by the client, unlike a crash) unless the
  // serve_while_retired bug switch is on. A fence is an answer, not a drop.
  void set_member(bool member) { retired_ = !member; }
  bool retired() const { return retired_; }
  void set_epoch(int epoch) { epoch_ = epoch; }
  int epoch() const { return epoch_; }
  bool fences_requests() const {
    return retired_ && !config_.serve_while_retired;
  }

  // State transfer at an epoch boundary (join-sync / drain-on-leave):
  // adopts (ts, value) if it advances the cell. Instantaneous, draws no
  // randomness, and works even while the replica is down (the transfer is
  // modeled as completing on recovery).
  void adopt_state(const Timestamp& ts, std::uint64_t value, int object = 0);

  Timestamp timestamp(int object = 0) const;
  std::uint64_t value(int object = 0) const;

  // Highest timestamp this replica has ever stored for `object` — NOT
  // cleared by amnesia recovery, so it witnesses what a state wipe lost.
  Timestamp max_timestamp_seen(int object = 0) const;

  // Lifetime counts: reads served below max_timestamp_seen (zero under the
  // paper's crash model, positive once amnesia rolls state back), requests
  // dropped while down, and replies this replica corrupted — ground truth
  // for the chaos harness's fabricated-read accounting.
  const ReplicaCounts& counts() const { return counts_; }
  std::uint64_t ts_regressions() const { return counts_.ts_regressions; }
  std::uint64_t dropped_requests() const { return counts_.dropped_requests; }
  std::uint64_t lies_told() const { return counts_.lies_told; }

 protected:
  struct Cell {
    Timestamp ts;
    std::uint64_t value = 0;
  };
  // True if up at `now`; otherwise the request is dropped and counted.
  bool accept(double now);
  // The cell a read of `object` at `now` is served from, or nullptr when
  // the replica is down or fenced; counts a read below the high-water mark.
  const Cell* serve_cell(double now, int object);
  // What a reply to `client` reports for `cell`: the truth, or the active
  // lie window's corruption of it.
  std::pair<Timestamp, std::uint64_t> reported(const Cell& cell, double now,
                                               int client);

 private:
  void advance_failure_process(double now) const;

  int id_;
  ServerConfig config_;
  mutable Rng rng_;
  mutable bool up_ = true;
  mutable double next_toggle_ = 0.0;
  double forced_down_until_ = 0.0;
  double forced_up_until_ = 0.0;
  double gray_factor_ = 1.0;
  double gray_until_ = 0.0;
  bool retired_ = false;
  int epoch_ = 0;
  LieMode lie_mode_ = LieMode::kNone;
  double lie_until_ = 0.0;
  ReplicaCounts counts_;

  mutable std::unordered_map<int, Cell> objects_;
  std::unordered_map<int, Timestamp> max_ts_seen_;
};

// A caller's replica vector (of Replica or a subclass), so the shared epoch
// transition and fault dispatch act on the simulator's and the service's
// fleets alike.
class ReplicaFleet {
 public:
  template <class R>
  ReplicaFleet(std::vector<R>& replicas)  // NOLINT(runtime/explicit)
      : data_(&replicas),
        size_(replicas.size()),
        at_([](void* v, std::size_t i) -> Replica& {
          return (*static_cast<std::vector<R>*>(v))[i];
        }) {}

  std::size_t size() const { return size_; }
  Replica& operator[](std::size_t i) const { return at_(data_, i); }

 private:
  void* data_;
  std::size_t size_;
  Replica& (*at_)(void*, std::size_t);
};

// The fleet's counts summed over every replica.
ReplicaCounts fleet_counts(ReplicaFleet fleet);

// Adds `counts` to the registry counters <prefix>.dropped_requests,
// <prefix>.ts_regressions and <prefix>.lies_told. All-zero counts register
// nothing, so a run without drops, regressions or lies adds no names.
void publish_replica_counts(const std::string& prefix,
                            const ReplicaCounts& counts);

// Crosses the boundary into `epoch` of `schedule`: drain-on-leave (every
// departing replica's register is adopted by every member of the new view,
// so a write acked only by a leaver survives its retirement), then
// join-sync (joiners adopt the newest state held anywhere in the old view),
// then every replica's membership and epoch stamp flip. Deterministic and
// rng-free, so churn never shifts a random stream.
void apply_epoch_transition(const EpochedFamily& schedule, int epoch,
                            ReplicaFleet fleet);

// One acquisition's replies, indexed by family index — a single-slot
// quorum certificate: add() every reply that joins the quorum, then
// decide(b). The simulator client and the service runner both fold replies
// in index order through it.
class ReplyTally {
 public:
  struct Decision {
    // False only when a masking vote (b > 0) found no pair with b+1
    // vouchers: the op fails instead of returning a possible fabrication.
    bool ok = false;
    // The adopted pair: a read returns it, a write's new timestamp grows
    // from ts. The unwritten register is ({}, 0).
    Timestamp ts;
    std::uint64_t value = 0;
    // Family index of the first reply carrying the adopted pair that a
    // retired replica served, or -1 (a retired read).
    int retired_index = -1;
  };

  // Empties the tally for an acquisition over `universe` family indices;
  // storage is reused, so a warm tally never allocates.
  void reset(int universe) {
    slots_.resize(static_cast<std::size_t>(universe));
    for (Slot& s : slots_) s.reached = false;
    any_retired_ = false;
  }
  // Records the reply of family index `index`; `from_retired` marks a reply
  // served by a replica that was retired AT SERVE TIME.
  void add(int index, const Timestamp& ts, std::uint64_t value,
           bool from_retired = false) {
    slots_[static_cast<std::size_t>(index)] = {ts, value, true, from_retired};
    any_retired_ = any_retired_ || from_retired;
  }
  // b = 0: the fail-stop fold — the max-timestamp reply over S+, the first
  // in index order on ties. b > 0: the Malkhi–Reiter–Wool masking vote —
  // the highest-timestamped pair reported identically by >= b+1 replies.
  Decision decide(int b) const;

  int size() const { return static_cast<int>(slots_.size()); }
  bool reached(int index) const {
    return slots_[static_cast<std::size_t>(index)].reached;
  }
  const Timestamp& timestamp(int index) const {
    return slots_[static_cast<std::size_t>(index)].ts;
  }

 private:
  struct Slot {
    Timestamp ts;
    std::uint64_t value = 0;
    bool reached = false;
    bool retired = false;
  };
  std::vector<Slot> slots_;
  bool any_retired_ = false;
};

}  // namespace sqs
