// The in-process message transport: one shared link-state machine for the
// discrete-event simulator AND the staged replicated-register service.
//
// Transport owns everything that decides a message's fate — flapping
// per-(client, server) links, partitions, link blocks, latency and loss
// bursts — but holds no clock of its own: every query passes the caller's
// notion of "now" explicitly. Both drivers call attempt() directly: the
// simulator's clients pass Simulator::now() and schedule a delivered hop as
// a typed event, the service runner (src/service) passes the virtual
// timeline of its open-loop load schedule. Fault plans drive served traffic
// through the same hooks they drive a simulation through.
//
// Links between each (client, server) pair flap independently: alternating
// exponentially-distributed up and down periods, evaluated lazily. A message
// attempted while the link is down is lost; otherwise it is delivered after
// base latency plus exponential jitter. Because down periods persist in
// time, two clients probing the same server around the same moment can see
// different outcomes — exactly the paper's *mismatch* mechanism — while
// mismatches on different servers stay independent (each pair has its own
// process), matching the Sect. 4 assumption. A partition switch makes a
// whole client's links fail together for testing the correlated case.
//
// Time must not flow backwards between calls that touch the same link: the
// flap processes advance lazily and only forward. The simulator's clock is
// monotone, and the service runner evaluates operations in arrival order.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace sqs {

struct NetworkConfig {
  double base_latency = 0.020;      // one-way, seconds
  double jitter_mean = 0.010;       // exponential jitter added per hop
  double link_mean_up = 100.0;      // mean link up-period (seconds)
  double link_mean_down = 1.0;      // mean link down-period (seconds)
  // Stationary P[link down] = mean_down / (mean_up + mean_down).
  double stationary_link_down() const {
    return link_mean_down / (link_mean_up + link_mean_down);
  }
  // True iff every duration is usable (positive means, non-negative
  // latency); complaints go to stderr, one line per bad field.
  bool validate() const;
};

class Transport {
 public:
  Transport(int num_clients, int num_servers, const NetworkConfig& config,
            Rng rng);

  // Outcome of one message hop attempted at time `now`.
  struct Delivery {
    bool delivered = false;
    double latency = 0.0;  // one-way, valid only when delivered
  };

  // Decides the fate of a message on the (client, server) link at `now`:
  // lost if the link is down (or a loss burst fires), otherwise delivered
  // after base latency plus exponential jitter (times any active latency
  // burst).
  Delivery attempt(int client, int server, double now);

  // True if the (client, server) link is up at `now`.
  bool link_up(int client, int server, double now);

  // --- fault hooks (windows measured from the supplied `now`) -------------
  void partition_client(int client, double now, double duration);
  void partition_client_partial(int client, double fraction, double now,
                                double duration);
  void block_link(int client, int server, double now, double duration);
  // Extends, never shortens, an active server-partition window.
  void force_partition(int server, double now, double duration);
  void inject_latency_burst(double factor, double now, double duration);
  void inject_loss_burst(double drop_prob, double now, double duration);

  bool client_partition_active(int client, double now) const;
  double client_partition_fraction(int client, double now) const;

  // Lifetime totals of the attempt path, always on so harness invariants
  // need no telemetry (see publish_transport_counts).
  std::uint64_t messages_delivered() const { return delivered_; }
  std::uint64_t messages_dropped() const { return dropped_; }

 private:
  struct Link {
    bool up = true;
    double next_toggle = 0.0;
  };

  Link& link(int client, int server) {
    return links_[static_cast<std::size_t>(client * num_servers_ + server)];
  }
  void advance_link(Link& l, double now);

  int num_clients_;
  int num_servers_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<Link> links_;
  std::vector<double> client_partition_until_;
  struct PartialPartition {
    double until = 0.0;
    double fraction = 0.0;
    std::vector<char> blocked;  // per-server
  };
  std::vector<PartialPartition> partial_partitions_;
  std::vector<double> link_block_until_;
  std::vector<double> server_partition_until_;
  double latency_factor_ = 1.0;
  double latency_burst_until_ = 0.0;
  double loss_prob_ = 0.0;
  double loss_burst_until_ = 0.0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

// Adds the transport's lifetime totals to the registry counters
// <prefix>.delivered and <prefix>.dropped (the simulator publishes once per
// run under "sim.net"). A transport that carried nothing registers nothing.
void publish_transport_counts(const std::string& prefix,
                              const Transport& transport);

}  // namespace sqs
