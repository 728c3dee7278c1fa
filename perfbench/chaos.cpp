// The chaos workload: run_chaos over the builtin OPT_d(12,2) grid plus the
// churn_replace cell (majority(12)) and the byzantine cell
// (MaskingThreshold(12,1)), a fixed number of replicates each.

#include <string>

#include "bench.h"
#include "core/constructions.h"
#include "core/masking.h"
#include "faults/family_spec.h"

namespace perfbench {
namespace {

std::vector<std::uint64_t> digest(const std::vector<sqs::ChaosCellResult>& cells) {
  std::vector<std::uint64_t> d;
  for (const sqs::ChaosCellResult& c : cells) {
    for (const long v : {c.ops_attempted, c.reads_ok, c.stale_reads, c.retries,
                         c.deadline_failures, c.server_ts_regressions,
                         c.lost_writes, c.fabricated_reads, c.retired_reads})
      d.push_back(static_cast<std::uint64_t>(v));
    for (const sqs::RegisterExperimentResult& r : c.replicates)
      d.push_back(r.events_executed);
    d.push_back(c.violations.size());
  }
  return d;
}

}  // namespace

void reseed_scenarios(std::vector<sqs::ChaosScenario>& scenarios,
                      std::uint64_t seed, std::uint64_t salt) {
  const sqs::Rng base = sqs::Rng(seed).split(salt);
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    scenarios[i].config.seed = base.split(i).next_u64();
}

Failures check_chaos_cells(const std::vector<sqs::ChaosCellResult>& cells) {
  Failures failures;
  for (const sqs::ChaosCellResult& c : cells)
    for (const sqs::ChaosViolation& v : c.violations)
      failures.push_back("chaos cell " + c.scenario + " violated " +
                         v.invariant + ": " + v.detail);
  return failures;
}

ChaosWorkload::ChaosWorkload(std::uint64_t seed, int threads, int replicates)
    : seed_(seed), replicates_(replicates) {
  opts_.threads = threads;
}

void ChaosWorkload::setup() {
  grids_.clear();
  ChaosGrid optd;
  optd.family = std::make_shared<sqs::OptDFamily>(12, 2);
  optd.scenarios = sqs::builtin_chaos_scenarios(*optd.family);
  grids_.push_back(std::move(optd));

  sqs::FamilySpec churn_spec;
  churn_spec.kind = "majority";
  churn_spec.n = 12;
  churn_spec.alpha = 2;
  ChaosGrid churn;
  churn.family = churn_spec.make();
  churn.scenarios = {sqs::churn_replace_chaos_scenario(churn_spec)};
  grids_.push_back(std::move(churn));

  ChaosGrid byzantine;
  const auto masking = std::make_shared<sqs::MaskingThresholdFamily>(12, 1);
  byzantine.scenarios = {sqs::byzantine_chaos_scenario(*masking, 1)};
  byzantine.family = masking;
  grids_.push_back(std::move(byzantine));

  for (std::size_t g = 0; g < grids_.size(); ++g)
    reseed_scenarios(grids_[g].scenarios, seed_, g);

  // Warm-up: one full pass starts the pool and fills the workers' scratch
  // arenas.
  for (const ChaosGrid& grid : grids_)
    sqs::run_chaos(*grid.family, grid.scenarios, replicates_, opts_);
}

PassStats ChaosWorkload::run_pass() {
  const Clock::time_point start = Clock::now();
  cells_.clear();
  for (const ChaosGrid& grid : grids_)
    for (sqs::ChaosCellResult& c :
         sqs::run_chaos(*grid.family, grid.scenarios, replicates_, opts_))
      cells_.push_back(std::move(c));
  PassStats stats;
  stats.wall_s = seconds_since(start);
  for (const sqs::ChaosCellResult& c : cells_)
    stats.units += static_cast<std::uint64_t>(c.ops_attempted);
  return stats;
}

Failures ChaosWorkload::check_pass() {
  Failures failures = check_chaos_cells(cells_);
  if (first_digest_.empty())
    first_digest_ = digest(cells_);
  else if (digest(cells_) != first_digest_)
    failures.push_back("chaos cells differ from the first pass's");
  return failures;
}

void ChaosWorkload::describe(const std::vector<PassStats>& passes,
                             MetricList& out) {
  std::vector<double> rates;
  for (const PassStats& p : passes)
    rates.push_back(static_cast<double>(p.units) / p.wall_s);
  long attempted = 0, ok = 0, reads = 0, stale = 0;
  for (const sqs::ChaosCellResult& c : cells_)
    for (const sqs::RegisterExperimentResult& r : c.replicates) {
      attempted += r.reads_attempted + r.writes_attempted;
      ok += r.reads_ok + r.writes_ok;
      reads += r.reads_attempted;
      stale += r.stale_reads;
    }
  out.add("chaos_ops_per_s", median(rates), "ops/s");
  out.add("ops_failed_share",
          attempted == 0 ? 0.0 : static_cast<double>(attempted - ok) / attempted,
          "ratio");
  out.add("stale_read_share",
          reads == 0 ? 0.0 : static_cast<double>(stale) / reads, "ratio");
}

}  // namespace perfbench
