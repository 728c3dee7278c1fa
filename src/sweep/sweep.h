// Typed parameter sweeps over (family, parameter) grids.
//
// Each sweep builds one SweepCell per grid point and hands the whole grid to
// run_sweep (runtime/run_trials.h), which flattens cells × trial-chunks into
// ONE submission on the shared thread pool — so a bench driver or a
// parameter search saturates the machine across cells instead of only
// within one estimate. Cell i's chunk c draws all of its randomness from the
// cell's base.split(c) and chunk accumulators merge in (cell, ascending
// chunk) order, exactly what a standalone run_trial_chunks call over cell i
// does. Each sweep also reuses the per-chunk kernel of the single-cell
// estimator it parallelizes across cells, so for equal trials/seeds its
// output is bit-identical to the loop
//
//     for (cell : cells) results.push_back(single_cell_estimate(cell));
//
// at any thread count; tests/test_sweep.cpp enforces it at 1/2/8 threads.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/quorum_family.h"
#include "mismatch/model.h"
#include "probe/measurements.h"
#include "runtime/run_trials.h"
#include "util/rng.h"

namespace sqs {

// Monte Carlo availability: cell result is bit-identical to
// family->availability_monte_carlo(p, samples, seed).
struct AvailabilityCell {
  std::shared_ptr<const QuorumFamily> family;
  double p = 0.3;
  std::uint64_t samples = kAvailabilityMcSamples;
  std::uint64_t seed = kAvailabilityMcSeed;
};

struct AvailabilityEstimate {
  std::int64_t live = 0;
  std::uint64_t samples = 0;

  double estimate() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(live) /
                              static_cast<double>(samples);
  }
};

std::vector<AvailabilityEstimate> sweep_availability(
    const std::vector<AvailabilityCell>& cells, const TrialOptions& opts = {});

// Two-client non-intersection: cell result is bit-identical to
// measure_nonintersection(*family, model, trials, base, bound_factor).
struct NonintersectionCell {
  std::shared_ptr<const QuorumFamily> family;
  MismatchModel model;
  std::uint64_t trials = 100000;
  Rng base;
  double bound_factor = 1.0;  // 1 for Theorem 9/12, 2 for Theorem 44
};

std::vector<NonintersectionStats> sweep_nonintersection(
    const std::vector<NonintersectionCell>& cells,
    const TrialOptions& opts = {});

// Probe-behaviour measurement: cell result is bit-identical to
// measure_probes(*family, p, trials, base).
struct ProbeCell {
  std::shared_ptr<const QuorumFamily> family;
  double p = 0.3;
  std::uint64_t trials = 20000;
  Rng base;
};

std::vector<ProbeMeasurement> sweep_probes(const std::vector<ProbeCell>& cells,
                                           const TrialOptions& opts = {});

}  // namespace sqs
