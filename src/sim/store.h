// A multi-object replicated store over the simulator — Sect. 6.3 end to end.
//
// `num_objects` registers are replicated on the same n servers. Each object
// is served by its own quorum family: with `rotate_orders` every object gets
// an OPT_d family whose probe order is rotated by the object id, so all
// clients of one object still share a deterministic non-adaptive order
// (Theorem 9 applies per object) while the aggregate per-server load
// flattens to ~E[probes]/n. Without rotation every object shares order
// 0..n-1 and server 0 melts. The harness measures exactly what Sect. 6.3
// promises: per-object guarantees unchanged, fleet-level load balanced.

#pragma once

#include <memory>
#include <vector>

#include "core/constructions.h"
#include "sim/client.h"
#include "util/stats.h"

namespace sqs {

struct StoreExperimentConfig {
  int num_servers = 24;
  int num_objects = 24;
  int alpha = 2;
  bool rotate_orders = true;
  int num_clients = 8;
  double duration = 1000.0;
  double think_time = 0.3;
  double read_fraction = 0.7;
  NetworkConfig network;
  ServerConfig server;
  ClientConfig client;
  std::uint64_t seed = 1;

  // True iff the world is non-empty, OPT_d(num_servers, alpha) exists and
  // every duration/fraction is usable (delegates to the network/server/
  // client validators); complaints go to stderr.
  bool validate() const;
};

struct StoreExperimentResult {
  long ops_attempted = 0;
  long ops_ok = 0;
  long stale_reads = 0;
  long reads_ok = 0;
  RunningStat probes_per_op;
  // Fraction of operations that probed each server.
  std::vector<double> server_probe_fraction;

  double availability() const {
    return ops_attempted > 0
               ? static_cast<double>(ops_ok) / static_cast<double>(ops_attempted)
               : 0.0;
  }
  double max_server_load() const;
  double min_server_load() const;
};

// An invalid config (see validate) yields an empty result.
StoreExperimentResult run_store_experiment(const StoreExperimentConfig& config);

}  // namespace sqs
