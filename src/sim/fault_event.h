// Fault events as data: the FaultPlan timeline and its one dispatch.
//
// A FaultPlan is plain data: a list of fault events, each pinned to an
// absolute time. apply_fault_event applies one event to a replica fleet and
// a Transport at an explicit time, so both drivers run the same dispatch:
// the simulator harness (RegisterExperimentConfig::plan) from one typed
// kFault event per plan event, the service runner (ServiceConfig::plan)
// from its arrival-ordered fault cursor. Application draws nothing from any
// rng stream, so the same plan + seed reproduces a bit-identical run at any
// thread count. The scenario builders that expand churn waves, storms and
// Byzantine windows into plans live in faults/fault_plan.h.

#pragma once

#include <vector>

#include "sim/server.h"
#include "sim/transport.h"

namespace sqs {

struct FaultEvent {
  enum class Kind {
    kServerCrash,       // pin `server` down for `duration`
    kServerPin,         // pin `server` up for `duration` (restart override)
    kGrayServer,        // `server`'s service_time x `magnitude` for `duration`
    kLinkDown,          // block the (client, server) link for `duration`
    kClientPartition,   // all of `client`'s links down for `duration`;
                        // magnitude < 1 partitions that fraction instead
    kServerPartition,   // every client's link to `server` down for `duration`
    kLatencyBurst,      // deliveries x `magnitude` latency for `duration`
    kLossBurst,         // extra drop probability `magnitude` for `duration`
    // Byzantine lie windows: `server` keeps answering but its replies are
    // corrupted per sim/server.h's LieMode for `duration`. Lies are pure
    // functions of (liar id, genuine state) — no rng stream is touched.
    kLieWrongValue,     // inflated timestamps + fabricated values
    kLieStaleTs,        // pretends the register was never written
    kLieEquivocate,     // truth to even clients, fabrication to odd clients
    kLieFabricateAck,   // acks writes without applying them
  };
  Kind kind;
  double at = 0.0;        // absolute simulated seconds
  double duration = 0.0;
  int server = -1;
  int client = -1;
  double magnitude = 1.0;
};

const char* fault_kind_name(FaultEvent::Kind kind);

struct FaultPlan {
  std::vector<FaultEvent> events;

  // Builder-style helpers; all return *this for chaining.
  FaultPlan& crash(double at, int server, double duration) {
    return add({FaultEvent::Kind::kServerCrash, at, duration, server, -1, 1.0});
  }
  FaultPlan& pin_up(double at, int server, double duration) {
    return add({FaultEvent::Kind::kServerPin, at, duration, server, -1, 1.0});
  }
  FaultPlan& gray(double at, int server, double factor, double duration) {
    return add({FaultEvent::Kind::kGrayServer, at, duration, server, -1,
                factor});
  }
  FaultPlan& link_down(double at, int client, int server, double duration) {
    return add({FaultEvent::Kind::kLinkDown, at, duration, server, client,
                1.0});
  }
  FaultPlan& client_partition(double at, int client, double duration,
                              double fraction = 1.0) {
    return add({FaultEvent::Kind::kClientPartition, at, duration, -1, client,
                fraction});
  }
  FaultPlan& server_partition(double at, int server, double duration) {
    return add({FaultEvent::Kind::kServerPartition, at, duration, server, -1,
                1.0});
  }
  FaultPlan& latency_burst(double at, double factor, double duration) {
    return add({FaultEvent::Kind::kLatencyBurst, at, duration, -1, -1,
                factor});
  }
  FaultPlan& loss_burst(double at, double drop_prob, double duration) {
    return add({FaultEvent::Kind::kLossBurst, at, duration, -1, -1,
                drop_prob});
  }
  // The lie kinds follow LieMode's order; a kNone lie is not an event.
  FaultPlan& lie(double at, int server, LieMode mode, double duration) {
    if (mode == LieMode::kNone) return *this;
    const int kind = static_cast<int>(FaultEvent::Kind::kLieWrongValue) +
                     static_cast<int>(mode) -
                     static_cast<int>(LieMode::kWrongValue);
    return add({static_cast<FaultEvent::Kind>(kind), at, duration, server, -1,
                1.0});
  }
  FaultPlan& add(const FaultEvent& ev) {
    events.push_back(ev);
    return *this;
  }

  // True iff every event's time/duration/indices/magnitudes make sense for
  // a world of num_clients x num_servers; complaints go to stderr, one line
  // per bad event, in the style of the sim config validators.
  bool validate(int num_clients, int num_servers) const;
};

// Applies `ev` to `fleet` and `transport` with every window starting at
// `now`. Counts and flight events are the caller's.
void apply_fault_event(const FaultEvent& ev, double now, ReplicaFleet fleet,
                       Transport& transport);

}  // namespace sqs
