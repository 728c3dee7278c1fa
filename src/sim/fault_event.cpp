#include "sim/fault_event.h"

#include <cstdio>
#include <iterator>

namespace sqs {

const char* fault_kind_name(FaultEvent::Kind kind) {
  static const char* const kNames[] = {
      "server_crash",     "server_pin",       "gray_server",
      "link_down",        "client_partition", "server_partition",
      "latency_burst",    "loss_burst",       "lie_wrong_value",
      "lie_stale_ts",     "lie_equivocate",   "lie_fabricate_ack"};
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

bool FaultPlan::validate(int num_clients, int num_servers) const {
  bool ok = true;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    const auto reject = [&ok, i, &ev](const char* why) {
      std::fprintf(stderr, "FaultPlan: event %zu (%s at %g): %s\n", i,
                   fault_kind_name(ev.kind), ev.at, why);
      ok = false;
    };
    if (!(ev.at >= 0.0)) reject("negative time");
    if (!(ev.duration >= 0.0)) reject("negative duration");
    const bool needs_server = ev.kind != FaultEvent::Kind::kClientPartition &&
                              ev.kind != FaultEvent::Kind::kLatencyBurst &&
                              ev.kind != FaultEvent::Kind::kLossBurst;
    const bool needs_client = ev.kind == FaultEvent::Kind::kLinkDown ||
                              ev.kind == FaultEvent::Kind::kClientPartition;
    if (needs_server && (ev.server < 0 || ev.server >= num_servers))
      reject("server index out of range");
    if (needs_client && (ev.client < 0 || ev.client >= num_clients))
      reject("client index out of range");
    switch (ev.kind) {
      case FaultEvent::Kind::kGrayServer:
        if (!(ev.magnitude >= 1.0)) reject("gray factor < 1");
        break;
      case FaultEvent::Kind::kClientPartition:
        if (!(ev.magnitude >= 0.0 && ev.magnitude <= 1.0))
          reject("partition fraction outside [0,1]");
        break;
      case FaultEvent::Kind::kLatencyBurst:
        if (!(ev.magnitude >= 1.0)) reject("latency factor < 1");
        break;
      case FaultEvent::Kind::kLossBurst:
        if (!(ev.magnitude >= 0.0 && ev.magnitude <= 1.0))
          reject("drop probability outside [0,1]");
        break;
      default:
        break;
    }
  }
  return ok;
}

void apply_fault_event(const FaultEvent& ev, double now, ReplicaFleet fleet,
                       Transport& transport) {
  const auto server = [&fleet, &ev]() -> Replica& {
    return fleet[static_cast<std::size_t>(ev.server)];
  };
  switch (ev.kind) {
    case FaultEvent::Kind::kServerCrash:
      server().force_crash(now, ev.duration);
      break;
    case FaultEvent::Kind::kServerPin:
      server().force_up(now, ev.duration);
      break;
    case FaultEvent::Kind::kGrayServer:
      server().set_gray(ev.magnitude, now, ev.duration);
      break;
    case FaultEvent::Kind::kLinkDown:
      transport.block_link(ev.client, ev.server, now, ev.duration);
      break;
    case FaultEvent::Kind::kClientPartition:
      if (ev.magnitude >= 1.0)
        transport.partition_client(ev.client, now, ev.duration);
      else
        transport.partition_client_partial(ev.client, ev.magnitude, now,
                                           ev.duration);
      break;
    case FaultEvent::Kind::kServerPartition:
      transport.force_partition(ev.server, now, ev.duration);
      break;
    case FaultEvent::Kind::kLatencyBurst:
      transport.inject_latency_burst(ev.magnitude, now, ev.duration);
      break;
    case FaultEvent::Kind::kLossBurst:
      transport.inject_loss_burst(ev.magnitude, now, ev.duration);
      break;
    case FaultEvent::Kind::kLieWrongValue:
    case FaultEvent::Kind::kLieStaleTs:
    case FaultEvent::Kind::kLieEquivocate:
    case FaultEvent::Kind::kLieFabricateAck: {
      // The lie kinds follow LieMode's order.
      const int mode = static_cast<int>(ev.kind) -
                       static_cast<int>(FaultEvent::Kind::kLieWrongValue) +
                       static_cast<int>(LieMode::kWrongValue);
      server().set_lie(static_cast<LieMode>(mode), now, ev.duration);
      break;
    }
  }
}

}  // namespace sqs
