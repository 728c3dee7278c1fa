// A minimal discrete-event simulator.
//
// Time is a double (seconds). Events are plain data (SimEvent) ordered by
// (time, seq); the seq tiebreak makes execution deterministic for equal
// timestamps. Each event names the sink that handles it, and each sink has
// one switch over the event kinds it owns: a SimClient runs the legs of its
// probes, write pushes, retries and view fetches, and the harness or the
// store runs think time, epoch boundaries, partitions and fault-plan
// events. An event owns no memory, so scheduling one never allocates once
// the queue has grown. The wide-area harness (transport, replicas, clients)
// runs entirely on this loop, so every simulated experiment is reproducible
// from its seed.

#pragma once

#include <cstdint>
#include <vector>

#include "sim/server.h"

namespace sqs {

class SimSink;

struct SimEvent {
  enum class Kind : std::uint8_t {
    // Load and world events (harness, store).
    kThink,      // `client` starts its next operation
    kEpoch,      // cross into epoch `value`
    kPartition,  // the partition injector fires
    kFault,      // apply fault-plan event number `value`
    // A SimClient's legs (sim/client.h); `probe` names the probe.
    kProbeRequest,   // probe reaches `replica`; `flag`: sent under a view
    kProbeServed,    // `replica` served (ts, value); `flag`: it was retired
    kFenceServed,    // retired `replica` rejected the probe
    kProbeReply,     // the served reply reaches the client
    kFenceReply,     // the rejection reaches the client
    kProbeTimeout,   // the probe's timeout expires
    kFilterTimeout,  // a filtered attempt resolves
    kRetry,          // backoff over: next acquisition attempt
    kViewFetched,    // stale-view fetch done: learn it and re-probe
    kLearnView,      // a finished op's view refresh lands
    // Write pushes and read repair; `probe` is the write's op id.
    kPushRequest,  // (ts, value) of `object` reaches `replica`
    kPushServed,   // `replica` applied it
    kPushAck,      // its ack reaches the client
    kPushTimeout,  // the push's timeout expires
    kRepair,       // a read-repair write reaches `replica`
  };

  SimSink* target = nullptr;
  Kind kind = Kind::kThink;
  bool flag = false;
  int client = -1;
  int replica = -1;
  int object = 0;
  std::uint64_t probe = 0;
  Timestamp ts{};
  std::uint64_t value = 0;
  // Filled in by Simulator::schedule.
  double time = 0.0;
  double sched_at = 0.0;  // clock value when schedule() was called
  std::uint64_t seq = 0;
};

// Whatever handles events: one switch over the kinds it schedules. Queued
// events hold the sink's address, so a sink is neither copied nor moved.
class SimSink {
 public:
  virtual void on_event(const SimEvent& ev) = 0;

 protected:
  SimSink() = default;
  SimSink(const SimSink&) = delete;
  SimSink& operator=(const SimSink&) = delete;
  ~SimSink() = default;
};

class Simulator {
 public:
  Simulator() { heap_.reserve(kInitialCapacity); }

  double now() const { return now_; }

  // Schedules `ev` for ev.target, `delay` seconds from now (delay >= 0).
  void schedule(double delay, SimEvent ev);

  // Runs events until the queue drains or `deadline` passes (events at
  // exactly `deadline` still run).
  void run_until(double deadline);

  // Runs until the queue drains.
  void run();

  std::size_t pending_events() const { return heap_.size(); }

  // Event-loop statistics, so harnesses can report queue behaviour without
  // reaching into the internals: totals over the simulator's lifetime.
  std::uint64_t scheduled_events() const { return next_seq_; }
  std::uint64_t executed_events() const { return executed_events_; }
  std::size_t peak_pending_events() const { return peak_pending_; }

 private:
  // Orders the heap so the earliest (time, seq) event is at the front.
  struct Later {
    bool operator()(const SimEvent& a, const SimEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  static constexpr std::size_t kInitialCapacity = 1024;

  // Removes the earliest event, advances the clock and dispatches it.
  void run_next();

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_events_ = 0;
  std::size_t peak_pending_ = 0;
  std::vector<SimEvent> heap_;
};

}  // namespace sqs
