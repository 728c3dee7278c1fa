// The Monte Carlo workload: sweep_nonintersection over the 9-cell OPT_d
// grid plus a sweep_availability grid over OPT_d and OPT_a, both on the
// bit-sliced batch kernels.

#include <cmath>
#include <string>

#include "bench.h"
#include "core/constructions.h"
#include "mismatch/exact.h"
#include "probe/sequential_analysis.h"

namespace perfbench {
namespace {

constexpr int kUniverse = 24;
constexpr double kCrashP = 0.1;
constexpr int kNonintAlphas[] = {1, 2, 3};
constexpr double kLinkMisses[] = {0.1, 0.2, 0.3};
constexpr std::uint64_t kNonintTrials = 200000;
// Availability cells sit where both families fail often enough for the
// band check to bite: a server is down with probability p.
constexpr int kAvailAlphas[] = {2, 3};
constexpr double kAvailPs[] = {0.8, 0.85, 0.9};
constexpr std::uint64_t kAvailSamples = 400000;
// Band half-width in standard deviations: a correct kernel leaves it with
// probability ~6e-7 per cell.
constexpr double kBandZ = 5.0;

std::vector<sqs::NonintersectionCell> nonint_grid(std::uint64_t seed,
                                                  std::uint64_t trials) {
  std::vector<sqs::NonintersectionCell> cells;
  const sqs::Rng base(seed);
  for (const int alpha : kNonintAlphas)
    for (const double miss : kLinkMisses) {
      sqs::NonintersectionCell cell;
      cell.family = std::make_shared<sqs::OptDFamily>(kUniverse, alpha);
      cell.model.p = kCrashP;
      cell.model.link_miss = miss;
      cell.trials = trials;
      cell.base = base.split(cells.size());
      cells.push_back(std::move(cell));
    }
  return cells;
}

std::vector<sqs::AvailabilityCell> avail_grid(std::uint64_t seed,
                                              std::uint64_t samples) {
  std::vector<std::shared_ptr<const sqs::QuorumFamily>> families;
  for (const int alpha : kAvailAlphas) {
    families.push_back(std::make_shared<sqs::OptDFamily>(kUniverse, alpha));
    families.push_back(std::make_shared<sqs::OptAFamily>(kUniverse, alpha));
  }
  std::vector<sqs::AvailabilityCell> cells;
  sqs::Rng seeds = sqs::Rng(seed).split("availability");
  for (const auto& family : families)
    for (const double p : kAvailPs) cells.push_back({family, p, samples, seeds.next_u64()});
  return cells;
}

bool same_counts(const std::vector<sqs::NonintersectionStats>& a,
                 const std::vector<sqs::NonintersectionStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].nonintersection.successes != b[i].nonintersection.successes ||
        a[i].both_acquired.successes != b[i].both_acquired.successes)
      return false;
  return true;
}

bool same_counts(const std::vector<sqs::AvailabilityEstimate>& a,
                 const std::vector<sqs::AvailabilityEstimate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].live != b[i].live || a[i].samples != b[i].samples) return false;
  return true;
}

}  // namespace

bool in_binomial_band(std::uint64_t successes, std::uint64_t trials, double p) {
  const double n = static_cast<double>(trials);
  const double sd = std::sqrt(n * p * (1.0 - p));
  return std::fabs(static_cast<double>(successes) - n * p) <= kBandZ * sd + 1.0;
}

Failures check_sweep_counts(const std::vector<sqs::NonintersectionStats>& nonint,
                            const std::vector<double>& exact_nonint,
                            const std::vector<sqs::AvailabilityEstimate>& avail,
                            const std::vector<double>& exact_avail) {
  Failures failures;
  if (nonint.size() != exact_nonint.size() || avail.size() != exact_avail.size()) {
    failures.push_back("sweep returned the wrong number of cells");
    return failures;
  }
  for (std::size_t i = 0; i < nonint.size(); ++i) {
    const sqs::Proportion& est = nonint[i].nonintersection;
    if (!in_binomial_band(est.successes, est.trials, exact_nonint[i]))
      failures.push_back("non-intersection cell " + std::to_string(i) + ": " +
                         std::to_string(est.successes) + "/" +
                         std::to_string(est.trials) + " vs exact " +
                         std::to_string(exact_nonint[i]));
  }
  for (std::size_t i = 0; i < avail.size(); ++i) {
    if (avail[i].live < 0 ||
        !in_binomial_band(static_cast<std::uint64_t>(avail[i].live),
                          avail[i].samples, exact_avail[i]))
      failures.push_back("availability cell " + std::to_string(i) + ": " +
                         std::to_string(avail[i].live) + "/" +
                         std::to_string(avail[i].samples) + " vs exact " +
                         std::to_string(exact_avail[i]));
  }
  return failures;
}

SweepWorkload::SweepWorkload(std::uint64_t seed, int threads,
                             std::uint64_t scale)
    : seed_(seed), scale_(scale) {
  opts_.threads = threads;
  opts_.batch = sqs::BatchPolicy::kBatched;
}

void SweepWorkload::setup() {
  nonint_cells_ = nonint_grid(seed_, kNonintTrials / scale_);
  avail_cells_ = avail_grid(seed_, kAvailSamples / scale_);
  // Warm-up: one full pass starts the pool and fills every worker's
  // scratch arena with the cells' buffer shapes.
  sqs::sweep_nonintersection(nonint_cells_, opts_);
  sqs::sweep_availability(avail_cells_, opts_);
}

PassStats SweepWorkload::run_pass() {
  const Clock::time_point start = Clock::now();
  nonint_ = sqs::sweep_nonintersection(nonint_cells_, opts_);
  const double nonint_s = seconds_since(start);
  const Clock::time_point avail_start = Clock::now();
  avail_ = sqs::sweep_availability(avail_cells_, opts_);
  const double avail_s = seconds_since(avail_start);
  nonint_wall_.push_back(nonint_s);
  avail_wall_.push_back(avail_s);

  PassStats stats;
  for (const auto& c : nonint_cells_) stats.units += c.trials;
  for (const auto& c : avail_cells_) stats.units += c.samples;
  stats.wall_s = nonint_s + avail_s;
  return stats;
}

const std::vector<double>& SweepWorkload::exact_nonint() {
  if (exact_nonint_.empty())
    for (const auto& c : nonint_cells_) {
      const int alpha = c.family->alpha();
      exact_nonint_.push_back(
          sqs::exact_nonintersection(kUniverse, alpha, c.model.p,
                                     c.model.link_miss,
                                     sqs::opt_d_stop_rule(kUniverse, alpha))
              .nonintersection);
    }
  return exact_nonint_;
}

const std::vector<double>& SweepWorkload::exact_avail() {
  if (exact_avail_.empty())
    for (const auto& c : avail_cells_)
      exact_avail_.push_back(c.family->availability(c.p));
  return exact_avail_;
}

Failures SweepWorkload::check_pass() {
  Failures failures =
      check_sweep_counts(nonint_, exact_nonint(), avail_, exact_avail());
  if (first_nonint_.empty()) {
    first_nonint_ = nonint_;
    first_avail_ = avail_;
  } else if (!same_counts(nonint_, first_nonint_) ||
             !same_counts(avail_, first_avail_)) {
    failures.push_back("sweep counts differ from the first pass's");
  }
  return failures;
}

void SweepWorkload::describe(const std::vector<PassStats>&, MetricList& out) {
  std::uint64_t nonint_trials = 0, nonint_events = 0;
  for (const auto& s : nonint_) {
    nonint_trials += s.nonintersection.trials;
    nonint_events += s.nonintersection.successes;
  }
  std::uint64_t samples = 0;
  std::int64_t live = 0;
  for (const auto& a : avail_) {
    samples += a.samples;
    live += a.live;
  }
  std::vector<double> nonint_rates, avail_rates;
  for (const double s : nonint_wall_)
    nonint_rates.push_back(static_cast<double>(nonint_trials) / s);
  for (const double s : avail_wall_)
    avail_rates.push_back(static_cast<double>(samples) / s);
  out.add("nonint_trials_per_s", median(nonint_rates), "trials/s");
  out.add("avail_trials_per_s", median(avail_rates), "trials/s");
  out.add("nonint_share", static_cast<double>(nonint_events) / nonint_trials,
          "ratio");
  out.add("unavailable_share",
          1.0 - static_cast<double>(live) / static_cast<double>(samples),
          "ratio");
}

}  // namespace perfbench
