#include "faults/fault_plan.h"

namespace sqs {

FaultPlan make_churn_plan(int num_servers, double start, double period,
                          int group_size, double outage, double until) {
  FaultPlan plan;
  int next = 0;
  for (double t = start; t < until; t += period) {
    for (int g = 0; g < group_size; ++g) {
      plan.crash(t, next, outage);
      next = (next + 1) % num_servers;
    }
  }
  return plan;
}

FaultPlan make_mass_crash_plan(int num_servers, int keep_up, double start,
                               double duration) {
  FaultPlan plan;
  for (int s = 0; s < num_servers; ++s) {
    if (s < num_servers - keep_up)
      plan.crash(start, s, duration);
    else
      plan.pin_up(start, s, duration);
  }
  return plan;
}

FaultPlan make_gray_plan(int num_servers, int num_gray, double factor,
                         double start, double duration) {
  FaultPlan plan;
  for (int s = 0; s < num_gray && s < num_servers; ++s)
    plan.gray(start, s, factor, duration);
  return plan;
}

FaultPlan make_partition_storm_plan(int num_clients, double start,
                                    double until, double period,
                                    double outage, double fraction, Rng rng) {
  FaultPlan plan;
  for (double t = start; t < until; t += period) {
    const int victim = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(num_clients)));
    plan.client_partition(t, victim, outage, fraction);
  }
  return plan;
}

FaultPlan make_lossy_plan(double start, double until, double period,
                          double burst_len, double drop_prob,
                          double latency_factor) {
  FaultPlan plan;
  for (double t = start; t < until; t += period) {
    plan.loss_burst(t, drop_prob, burst_len);
    plan.latency_burst(t + period / 2.0, latency_factor, burst_len);
  }
  return plan;
}

FaultPlan make_byzantine_plan(int num_servers, int num_liars, double start,
                              double duration) {
  FaultPlan plan;
  // Phase fractions chosen so the headline lie (fabricated writes) owns
  // most of the window while every mode still gets meaningful coverage.
  const double wrong = 0.45 * duration;
  const double equiv = 0.25 * duration;
  const double stale = 0.15 * duration;
  const double fab = duration - wrong - equiv - stale;
  for (int s = 0; s < num_liars && s < num_servers; ++s) {
    plan.pin_up(start, s, duration);
    double t = start;
    plan.lie(t, s, LieMode::kWrongValue, wrong);
    t += wrong;
    plan.lie(t, s, LieMode::kEquivocate, equiv);
    t += equiv;
    plan.lie(t, s, LieMode::kStaleTs, stale);
    t += stale;
    plan.lie(t, s, LieMode::kFabricateAck, fab);
  }
  return plan;
}

}  // namespace sqs
