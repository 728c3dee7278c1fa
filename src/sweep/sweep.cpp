#include "sweep/sweep.h"

#include <cmath>
#include <utility>

namespace sqs {

std::vector<AvailabilityEstimate> sweep_availability(
    const std::vector<AvailabilityCell>& cells, const TrialOptions& opts) {
  std::vector<SweepCell> grid(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    grid[i] = {cells[i].samples, Rng(cells[i].seed)};
  const std::vector<std::int64_t> live = run_sweep(
      grid, std::int64_t{0},
      [&](std::size_t cell, std::int64_t& acc, const TrialContext& ctx,
          Rng& rng) {
        availability_mc_chunk(*cells[cell].family, cells[cell].p, ctx, rng,
                              acc);
      },
      [](std::int64_t& total, std::int64_t part) { total += part; }, opts);

  std::vector<AvailabilityEstimate> out(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    out[i] = {live[i], cells[i].samples};
  return out;
}

std::vector<NonintersectionStats> sweep_nonintersection(
    const std::vector<NonintersectionCell>& cells, const TrialOptions& opts) {
  std::vector<SweepCell> grid(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    grid[i] = {cells[i].trials, cells[i].base};
  const std::vector<NonintersectionCounts> counts = run_sweep(
      grid, NonintersectionCounts{},
      [&](std::size_t cell, NonintersectionCounts& acc,
          const TrialContext& ctx, Rng& rng) {
        nonintersection_chunk(*cells[cell].family, cells[cell].model, ctx, rng,
                              acc);
      },
      [](NonintersectionCounts& total, NonintersectionCounts&& part) {
        total.merge(std::move(part));
      },
      opts);

  std::vector<NonintersectionStats> out(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out[i].both_acquired = counts[i].both_acquired;
    out[i].nonintersection = counts[i].nonintersection;
    out[i].epsilon = cells[i].model.epsilon();
    out[i].bound = cells[i].bound_factor *
                   std::pow(out[i].epsilon, 2.0 * cells[i].family->alpha());
  }
  return out;
}

std::vector<ProbeMeasurement> sweep_probes(const std::vector<ProbeCell>& cells,
                                           const TrialOptions& opts) {
  std::vector<SweepCell> grid(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    grid[i] = {cells[i].trials, cells[i].base};
  const std::vector<ProbeAccumulator> accs = run_sweep(
      grid, ProbeAccumulator{},
      [&](std::size_t cell, ProbeAccumulator& acc, const TrialContext& ctx,
          Rng& rng) {
        probe_measurement_chunk(*cells[cell].family, cells[cell].p, ctx, rng,
                                acc);
      },
      [](ProbeAccumulator& total, ProbeAccumulator&& part) {
        total.merge(std::move(part));
      },
      opts);

  std::vector<ProbeMeasurement> out(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    out[i] = finalize_probe_measurement(
        accs[i], cells[i].family->universe_size(), cells[i].trials);
  return out;
}

}  // namespace sqs
