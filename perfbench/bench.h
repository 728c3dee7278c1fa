// Shared declarations of the benchmark program (see README.md).
//
// A workload owns its inputs, runs timed passes over them through the
// library's public entry points, and checks every pass's outputs.
// main.cpp times set-up and passes; the per-layer figures of the
// traced run are computed in layers.cpp from the same workload objects.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/quorum_family.h"
#include "faults/chaos.h"
#include "obs/telemetry.h"
#include "service/load_gen.h"
#include "service/runner.h"
#include "sweep/sweep.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Ordered (name, value, unit) list, printed as one JSON object.
struct MetricList {
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries;

  void add(const std::string& name, double value, const std::string& unit) {
    entries.push_back({name, value, unit});
  }
};

// One line per failed output check; empty means the outputs are correct.
using Failures = std::vector<std::string>;

struct PassStats {
  std::uint64_t units = 0;  // operations performed (requests, trials, ops)
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time, all threads; set by main.cpp
};

double median(std::vector<double> values);

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the inputs and warms the pool, arenas and input pages up;
  // everything here counts toward setup_s. May be called repeatedly.
  virtual void setup() = 0;
  // One timed pass over the inputs.
  virtual PassStats run_pass() = 0;
  // Checks the last pass's outputs, including that they equal the first
  // pass's (every pass repeats the same deterministic work).
  virtual Failures check_pass() = 0;
  // The workload's own end-to-end figures, named as in README.md.
  virtual void describe(const std::vector<PassStats>& passes,
                        MetricList& out) = 0;
};

// --- served register (serve.cpp) -------------------------------------------

struct ServeSpec {
  bool masking = false;  // MaskingThreshold(12,1) + one liar, else OPT_d(12,2)
  double rate = 750.0;   // headline offered rate, ops per virtual second
  double read_fraction = 0.8;
  std::uint64_t ops = 150000;
  bool slo_ladder = false;  // measure slo_rate_ops_s over the rate ladder
};

ServeSpec serve_reads_spec();
ServeSpec serve_masking_writes_spec();

class ServeWorkload : public Workload {
 public:
  ServeWorkload(const ServeSpec& spec, std::uint64_t seed, int threads);

  void setup() override;
  PassStats run_pass() override;
  Failures check_pass() override;
  void describe(const std::vector<PassStats>& passes, MetricList& out) override;

  const sqs::QuorumFamily& family() const { return *family_; }
  const sqs::ServiceConfig& config() const { return config_; }
  const std::vector<std::uint8_t>& requests() const { return requests_; }
  const std::vector<std::uint8_t>& replies() const { return replies_; }
  const sqs::ServiceResult& result() const { return result_; }
  const sqs::ServiceRunner& runner() const { return *runner_; }
  double load_gen_ns_per_op() const { return load_gen_ns_per_op_; }

 private:
  ServeSpec spec_;
  std::uint64_t seed_;
  int threads_;
  std::unique_ptr<sqs::QuorumFamily> family_;
  sqs::ServiceConfig config_;
  sqs::LoadGenConfig load_;
  std::vector<std::uint8_t> requests_;
  std::vector<std::uint8_t> replies_;
  std::unique_ptr<sqs::ServiceRunner> runner_;
  sqs::ServiceResult result_;
  std::uint64_t first_fingerprint_ = 0;
  bool have_first_ = false;
  double load_gen_ns_per_op_ = 0.0;
};

// The serve output check: every reply decodes with a valid service cert and
// echoes its request's seq and kind, and the runner reports no decode
// failure, lost acked write, fabricated read or retired read.
Failures check_served(const std::vector<std::uint8_t>& requests,
                      const std::vector<std::uint8_t>& replies,
                      const sqs::ServiceResult& result);

// --- Monte Carlo sweeps (sweep.cpp) ----------------------------------------

class SweepWorkload : public Workload {
 public:
  // `scale` divides the default trial counts (1 = the mc_sweep workload).
  SweepWorkload(std::uint64_t seed, int threads, std::uint64_t scale = 1);

  void setup() override;
  PassStats run_pass() override;
  Failures check_pass() override;
  void describe(const std::vector<PassStats>& passes, MetricList& out) override;

  const std::vector<sqs::NonintersectionCell>& nonint_cells() const {
    return nonint_cells_;
  }
  const std::vector<sqs::AvailabilityCell>& avail_cells() const {
    return avail_cells_;
  }
  const std::vector<sqs::NonintersectionStats>& nonint() const {
    return nonint_;
  }
  const std::vector<sqs::AvailabilityEstimate>& avail() const {
    return avail_;
  }
  // Exact references the band checks compare against (computed once).
  const std::vector<double>& exact_nonint();
  const std::vector<double>& exact_avail();

 private:
  std::uint64_t seed_;
  sqs::TrialOptions opts_;
  std::uint64_t scale_;
  std::vector<sqs::NonintersectionCell> nonint_cells_;
  std::vector<sqs::AvailabilityCell> avail_cells_;
  std::vector<sqs::NonintersectionStats> nonint_;
  std::vector<sqs::AvailabilityEstimate> avail_;
  std::vector<sqs::NonintersectionStats> first_nonint_;
  std::vector<sqs::AvailabilityEstimate> first_avail_;
  std::vector<double> exact_nonint_, exact_avail_;
  std::vector<double> nonint_wall_, avail_wall_;
};

// Binomial band check: `successes` of `trials` must lie within z standard
// deviations (plus one count) of trials * p.
bool in_binomial_band(std::uint64_t successes, std::uint64_t trials, double p);

// The mc_sweep output check over explicit counts (the self-test shifts them).
Failures check_sweep_counts(const std::vector<sqs::NonintersectionStats>& nonint,
                            const std::vector<double>& exact_nonint,
                            const std::vector<sqs::AvailabilityEstimate>& avail,
                            const std::vector<double>& exact_avail);

// --- chaos simulator (chaos.cpp) -------------------------------------------

struct ChaosGrid {
  std::shared_ptr<const sqs::QuorumFamily> family;
  std::vector<sqs::ChaosScenario> scenarios;
};

class ChaosWorkload : public Workload {
 public:
  ChaosWorkload(std::uint64_t seed, int threads, int replicates);

  void setup() override;
  PassStats run_pass() override;
  Failures check_pass() override;
  void describe(const std::vector<PassStats>& passes, MetricList& out) override;

  const std::vector<ChaosGrid>& grids() const { return grids_; }
  const std::vector<sqs::ChaosCellResult>& cells() const { return cells_; }
  int replicates() const { return replicates_; }
  const sqs::TrialOptions& options() const { return opts_; }

 private:
  std::uint64_t seed_;
  sqs::TrialOptions opts_;
  int replicates_;
  std::vector<ChaosGrid> grids_;
  std::vector<sqs::ChaosCellResult> cells_;
  std::vector<std::uint64_t> first_digest_;
};

// Gives every scenario its own seed derived from the workload seed.
void reseed_scenarios(std::vector<sqs::ChaosScenario>& scenarios,
                      std::uint64_t seed, std::uint64_t salt);

// The chaos output check: every cell passed its invariants.
Failures check_chaos_cells(const std::vector<sqs::ChaosCellResult>& cells);

// --- per-layer figures of the traced run (layers.cpp) ----------------------

// Histogram/counter figures of the workload's own traced pass.
void runtime_layers(const sqs::obs::MetricsSnapshot& snap, double wall_s,
                    int threads, bool served, MetricList& out);
void service_layers(const ServeWorkload& w, const sqs::obs::MetricsSnapshot& snap,
                    double wall_s, int threads, MetricList& out);
void transport_layers_served(const ServeWorkload& w, MetricList& out);
void transport_layers_chaos(const ChaosWorkload& w, MetricList& out);
void sweep_layers(const SweepWorkload& w, MetricList& out);
void chaos_layers(const ChaosWorkload& w, double wall_s, int threads,
                  MetricList& out);

}  // namespace perfbench
