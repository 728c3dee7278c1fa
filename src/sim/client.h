// Timeout-probing clients.
//
// A client acquires a quorum by running its family's ProbeStrategy over the
// simulated network: each probe is an RPC whose reply doubles as a read of
// the server's replica state; a missing reply within the timeout is a failed
// probe. Mismatches are therefore *emergent* here (crashed server, flapping
// link, or latency spike), not injected — this is the mechanistic
// counterpart of the abstract model in src/mismatch.
//
// The client is RegisterOp's (sim/register_op.h) event-loop driver: the op
// decides what each reply, fence or miss means and what a read or write
// adopts; the client attempts every hop on the Transport at the simulator's
// clock, schedules the delivered ones as typed SimEvents to itself, and
// pushes writes to all of S+. A client runs one operation at a time (an
// assertion holds callers to it) and keeps that op's state by value; the
// op completes through its callback, which may start the next one.
//
// Graceful degradation (all off by default, so the classic single-shot
// behaviour — and its rng stream — is unchanged): a failed acquisition can
// be retried up to max_attempts times with exponential backoff and
// deterministic jitter drawn from the client's own rng; the probe timeout
// can adapt to an EWMA of observed reply round-trips (so a gray fleet is
// failed over quickly and a slow-but-healthy one is not); and a
// per-operation deadline bounds the total time an operation may spend
// before reporting failure instead of wedging.

#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "core/epoch.h"
#include "core/quorum_family.h"
#include "obs/recorder.h"
#include "sim/register_op.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "sim/transport.h"

namespace sqs {

// The protocol knobs (probe_timeout, lie_tolerance and the stale-view
// recovery fields) come from RegisterProtocolConfig (sim/register_op.h).
struct ClientConfig : RegisterProtocolConfig {
  // The filtering step of [17] (Sect. 1): before acquiring, the client must
  // reach a beacon outside its local domain; a client whose connectivity is
  // (partially) partitioned away fails that check with probability equal to
  // the partitioned fraction and aborts instead of acquiring a quorum built
  // from wrong negative evidence.
  bool use_partition_filter = false;
  // Read repair: after a read, asynchronously push the max-timestamp value
  // back to every reached server holding an older one. Shrinks the window
  // in which a later non-intersecting quorum could miss the value.
  bool read_repair = false;

  // --- graceful degradation (defaults preserve the classic behaviour) ---
  // Acquisition attempts per operation. A failed attempt (no quorum, or
  // aborted by the partition filter) is retried after
  //   backoff_base * 2^(attempt-1) * (1 + backoff_jitter * U)
  // seconds, U uniform in [0,1) from the client rng — deterministic given
  // the seed, desynchronized across clients.
  int max_attempts = 1;
  double backoff_base = 0.05;
  double backoff_jitter = 0.5;
  // Adaptive probe timeout: timeout = timeout_multiplier * EWMA of observed
  // reply round-trips, clamped to [min_probe_timeout, max_probe_timeout];
  // probe_timeout is used until the first reply has been observed.
  bool adaptive_timeout = false;
  double ewma_gain = 0.2;  // weight of the newest sample
  double timeout_multiplier = 4.0;
  double min_probe_timeout = 0.02;
  double max_probe_timeout = 1.0;
  // Per-operation deadline in seconds (0 = unbounded): once an operation
  // has been running this long it fails — no further probes, no retry —
  // and the result carries deadline_exceeded.
  double op_deadline = 0.0;

  // True iff timeouts/attempt counts/fractions are usable; complaints go
  // to stderr, one line per bad field.
  bool validate() const;
};

// What every operation reports: the acquisition's evidence and cost.
struct OpReport {
  // Causal op id (stream 1 + client id, per-client sequence); every flight
  // event this operation records carries it.
  obs::OpId op = obs::kNoOp;
  bool filtered = false;  // final attempt aborted by the partition filter
  SignedSet probed;  // +i reached, -i timed out (final attempt's evidence)
  int num_probes = 0;      // across all attempts
  int attempts = 1;
  bool deadline_exceeded = false;
  double latency = 0.0;  // whole operation, first attempt start to done
};

struct AcquisitionResult : OpReport {
  bool acquired = false;
  SignedSet quorum;
};

struct ReadResult : OpReport {
  bool ok = false;
  std::uint64_t value = 0;
  Timestamp timestamp;
};

struct WriteResult : OpReport {
  bool ok = false;
  Timestamp timestamp;
  int acks = 0;
};

class SimClient final : public SimSink {
 public:
  // `epochs` (optional) switches the client into epoch mode: the default
  // acquire/read/write overloads resolve family and membership from the
  // client's own — possibly stale — view epoch instead of `family`.
  SimClient(Simulator* sim, Transport* net, std::vector<Replica>* servers,
            int id, const QuorumFamily* family, const ClientConfig& config,
            Rng rng, const EpochState* epochs = nullptr);

  int id() const { return id_; }

  // Epoch mode introspection (0 / zero counters in classic mode).
  int view_epoch() const { return view_epoch_; }
  std::uint64_t view_refreshes() const { return view_refreshes_; }
  std::uint64_t epoch_rejects() const { return epoch_rejects_; }
  std::uint64_t retired_reads() const { return retired_reads_; }

  // Runs the probe strategy to completion; `done` fires exactly once. At
  // most one operation may be in flight; `done` may start the next.
  // The default overloads use the client's configured family and object 0;
  // the explicit ones support multi-object stores where each object has its
  // own (e.g. rotated) family.
  void acquire(std::function<void(AcquisitionResult)> done) {
    start_op(default_family(), /*object=*/0, 0, std::move(done));
  }
  void acquire(const QuorumFamily& family, int object,
               std::function<void(AcquisitionResult)> done) {
    start_op(&family, object, 0, std::move(done));
  }
  void read(std::function<void(ReadResult)> done) {
    start_op(default_family(), /*object=*/0, 0, std::move(done));
  }
  void read(const QuorumFamily& family, int object,
            std::function<void(ReadResult)> done) {
    start_op(&family, object, 0, std::move(done));
  }
  void write(std::uint64_t value, std::function<void(WriteResult)> done) {
    start_op(default_family(), /*object=*/0, value, std::move(done));
  }
  void write(const QuorumFamily& family, int object, std::uint64_t value,
             std::function<void(WriteResult)> done) {
    start_op(&family, object, value, std::move(done));
  }

  // The probe timeout the next probe would use (adaptive or fixed).
  double current_probe_timeout() const;

  // The legs of this client's messages, retries and view fetches.
  void on_event(const SimEvent& ev) override;

 private:
  using Done = std::variant<std::monostate,
                            std::function<void(AcquisitionResult)>,
                            std::function<void(ReadResult)>,
                            std::function<void(WriteResult)>>;

  // The operation in flight; `done` holds a callback exactly while it is.
  struct Op {
    explicit Op(const RegisterProtocolConfig& config) : protocol(config) {}
    Done done;
    // Null in epoch mode: each attempt resolves the family from the view.
    const QuorumFamily* family = nullptr;
    int object = 0;
    std::uint64_t value = 0;  // a write's value
    double start = 0.0;
    RegisterOp protocol;
    std::unique_ptr<ProbeStrategy> strategy;
    Rng strategy_rng;
    AcquisitionResult result;
    // The probe in flight: its id (0 = none), target and send time.
    std::uint64_t pending_seq = 0;
    RegisterOp::Probe probe{};
    double probe_sent_at = 0.0;
    // A write's push to S+: outstanding pushes, their start and, per
    // replica, whether its ack or timeout already resolved it.
    WriteResult written;
    int pushes_left = 0;
    double push_start = 0.0;
    std::vector<char> push_resolved;
  };

  const QuorumFamily* default_family() const {
    return epochs_ != nullptr ? nullptr : family_;
  }
  Replica& server(int replica) {
    return (*servers_)[static_cast<std::size_t>(replica)];
  }
  // Schedules `ev` to this client after `delay`.
  void after(double delay, SimEvent ev);
  // Attempts the hop to or from `replica` now; a delivered message becomes
  // `ev` after its latency, a lost one nothing.
  void send(int replica, SimEvent ev);
  // True for the first outcome of probe `seq` (a reply races its timeout).
  bool resolve(std::uint64_t seq);

  void start_op(const QuorumFamily* family, int object, std::uint64_t value,
                Done done);
  void start_attempt();
  void issue_next_probe();
  void finish_attempt();
  void learn_view();
  void finish_read();
  void finish_write();
  void resolve_push(int replica, std::uint64_t op, bool acked);
  // Ends the op, then hands `result` to its callback.
  template <class Result>
  void complete(const Result& result);

  Simulator* sim_;
  Transport* net_;
  std::vector<Replica>* servers_;
  int id_;
  const QuorumFamily* family_;
  ClientConfig config_;
  Rng rng_;
  const EpochState* epochs_ = nullptr;  // non-null in epoch mode
  Op op_;
  int view_epoch_ = 0;                  // the epoch this client believes in
  std::uint64_t view_refreshes_ = 0;
  std::uint64_t epoch_rejects_ = 0;
  std::uint64_t retired_reads_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_op_ = 0;  // per-client op sequence (OpId low bits)
  double ewma_rtt_ = 0.0;
  bool have_rtt_ = false;
};

}  // namespace sqs
