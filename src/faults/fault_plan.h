// Scenario builders: deterministic fault timelines.
//
// A FaultPlan (sim/fault_event.h) is plain data: fault events pinned to
// absolute simulated times. Building a plan involves no simulator — the
// builders below expand churn waves, mass-crash windows, gray fleets,
// partition storms, loss/latency bursts and Byzantine windows into concrete
// events, drawing any randomness from an explicit Rng so the expansion
// itself is a pure function of its inputs. A plan runs as data in either
// driver: RegisterExperimentConfig::plan in the simulator, whose harness
// applies each event from a typed kFault event, and ServiceConfig::plan in
// the service runner. Application draws nothing from any rng stream, so
// the same plan + seed reproduces a bit-identical run at any thread count
// (tests/test_faults.cpp asserts this at 1/2/8 threads).
//
// Telemetry: in the simulator each applied event bumps `sim.faults.injected`
// plus a per-kind `sim.faults.<kind>` counter and emits a trace instant, so
// an injected timeline is visible both in metric snapshots and in the
// Chrome trace.

#pragma once

#include "sim/fault_event.h"
#include "util/rng.h"

namespace sqs {

// --- scenario builders -----------------------------------------------------

// Rolling churn waves (the Sect. 6.3 shape): starting at `start`, every
// `period` seconds the next `group_size` servers — round-robin over the
// fleet — crash for `outage` seconds, until `until`.
FaultPlan make_churn_plan(int num_servers, double start, double period,
                          int group_size, double outage, double until);

// Mass-failure window: over [start, start + duration) exactly `keep_up`
// servers (the last ones, adversarially placed at the end of sequential
// probe orders) are pinned up and the rest pinned down — the paper's
// "any alpha servers up" availability scenario when keep_up == alpha.
FaultPlan make_mass_crash_plan(int num_servers, int keep_up, double start,
                               double duration);

// Gray fleet: `num_gray` servers (the first ones) serve `factor` x slower
// over [start, start + duration).
FaultPlan make_gray_plan(int num_servers, int num_gray, double factor,
                         double start, double duration);

// Partition storm: every `period` seconds over [start, until), one
// rng-chosen client loses `fraction` of its links for `outage` seconds.
FaultPlan make_partition_storm_plan(int num_clients, double start,
                                    double until, double period,
                                    double outage, double fraction, Rng rng);

// Lossy network: alternating loss bursts (probability `drop_prob`) and
// latency bursts (`latency_factor` x) of length `burst_len`, one pair per
// `period`, over [start, until).
FaultPlan make_lossy_plan(double start, double until, double period,
                          double burst_len, double drop_prob,
                          double latency_factor);

// Byzantine window: the first `num_liars` servers (the head of every
// sequential probe order — adversarial placement) lie over
// [start, start + duration), cycling through all four lie modes —
// wrong values (45% of the window), equivocation (25%), stale timestamps
// (15%), fabricated write acks (15%) — and are pinned *up* for the whole
// window so the lies actually reach clients deterministically.
FaultPlan make_byzantine_plan(int num_servers, int num_liars, double start,
                              double duration);

}  // namespace sqs
