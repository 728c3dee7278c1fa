// Invariant-checking chaos harness.
//
// A ChaosScenario is a register experiment with a fault plan installed and
// a budget of paper invariants it must satisfy:
//
//   * availability floor — operation availability stays above a floor
//     derived from the family's exact availability (closed form / DP
//     enumeration) at the scenario's effective per-server failure
//     probability, minus an explicit slack for load effects. In the
//     "any alpha up" mass-crash scenario this is the Theorem 34 guarantee
//     under the harshest survivable failure pattern.
//   * stale-read envelope — the stale-read fraction stays within a slack
//     factor of the Theorem 9 bound epsilon^(2 alpha) (epsilon = 2m/(1+m)
//     from the scenario's per-probe miss probability) plus a Monte Carlo
//     noise floor.
//   * timestamp monotonicity — no server ever serves a timestamp below its
//     own high-water mark and no client observes its reads go backwards.
//     Scenarios that break the crash model on purpose (amnesia) instead
//     *expect* regressions: the harness must detect them, proving the
//     checker has teeth.
//   * no lost write — a write acked by at least one server is still held
//     by some server at the end of the run (crash preserves state).
//   * no fabricated write — a successful read never returns a (timestamp,
//     value) binding that no genuine write produced. This one is strict and
//     unconditional: under the crash model nothing can fabricate state, and
//     under a Byzantine plan a masking family's voting clients must filter
//     every lie. A plain family run under a Byzantine plan trips it — the
//     designed-to-fail CI smoke.
//   * churn invariants — for scenarios with a ChurnPlan: no acked write is
//     lost across an epoch boundary (the lost-write scan restricts to the
//     final epoch's members, so drain-on-leave must strand nothing on a
//     retired server), no successful read adopts state served by a retired
//     server (strict and unconditional — only the serve_while_retired bug
//     switch can produce one), every client converges to the final view,
//     and adjacent epochs' quorums cross-intersect in logical-id space
//     (exact on small strict universes, Monte Carlo elsewhere).
//
// run_chaos executes replicates of every scenario through ONE run_sweep
// submission (scenario x replicate flattened across the thread pool;
// replicate r of a scenario draws its seed exactly like
// run_register_experiment_replicated), so a whole chaos grid saturates the
// machine and is bit-identical at any thread count.

#pragma once

#include <string>
#include <vector>

#include "core/quorum_family.h"
#include "faults/churn.h"
#include "faults/family_spec.h"
#include "faults/fault_plan.h"
#include "sim/harness.h"

namespace sqs {

struct ChaosInvariants {
  double availability_floor = 0.0;
  double stale_envelope = 1.0;
  // True only for scenarios that deliberately break the crash-failure
  // assumption (amnesia): the run must then OBSERVE ts regressions — a
  // clean report would mean the checker is blind.
  bool expect_ts_regressions = false;
  bool allow_lost_writes = false;
  // --- churn invariants (scenarios with a ChurnPlan) ---------------------
  // Every client must be back on the final epoch's view when the run ends
  // (a client still holding an older view never observed — or never acted
  // on — the reconfiguration).
  bool require_view_convergence = false;
  // Run check_cross_epoch_intersection over every adjacent epoch pair of
  // the expanded schedule: a stale client's quorum must intersect the next
  // epoch's write quorums with nonintersection probability at most
  // `max_cross_epoch_nonintersection` (0.0 demands an exact guarantee for
  // strict families; probabilistic families are held to the MC estimate).
  bool check_cross_epoch = false;
  double max_cross_epoch_nonintersection = 0.0;
};

// A scenario is *data*: the family by spec, the fault timeline, the churn
// timeline, the experiment knobs, and the invariant budget. run_chaos
// expands the plans at execution time (the fault plan into config.plan,
// the churn plan into the epoch schedule), so a scenario round-trips
// through JSON (src/faults/scenario_io) and replays without recompiling.
struct ChaosScenario {
  std::string name;
  std::string description;
  // The family under test, by construction spec. Empty kind = inherit the
  // family passed to run_chaos (the legacy builtin grid).
  FamilySpec family;
  // Pre-expanded fault timeline; run_chaos prepends it to config.plan, so
  // it runs before any events a caller put there directly.
  FaultPlan plan;
  // Membership timeline; non-empty requires a resizable `family` spec, and
  // run_chaos expands it into config.epochs for every replicate.
  ChurnPlan churn;
  RegisterExperimentConfig config;
  ChaosInvariants invariants;
};

struct ChaosViolation {
  std::string invariant;
  std::string detail;
};

struct ChaosCellResult {
  std::string scenario;
  std::vector<RegisterExperimentResult> replicates;
  // Aggregates over replicates.
  double availability = 0.0;
  double stale_fraction = 0.0;
  long ops_attempted = 0;
  long reads_ok = 0;
  long stale_reads = 0;
  long retries = 0;
  long deadline_failures = 0;
  long server_ts_regressions = 0;
  long read_ts_regressions = 0;
  long lost_writes = 0;
  long fabricated_reads = 0;
  // Churn aggregates (zero for churn-free scenarios).
  long epoch_transitions = 0;
  long view_refreshes = 0;
  long epoch_rejects = 0;
  long retired_reads = 0;
  long stale_views_at_end = 0;
  std::vector<ChaosViolation> violations;
  bool passed() const { return violations.empty(); }
};

// Exact availability of `family` at per-server failure probability `p`,
// minus `slack` (clamped at 0) — the exact-DP floor the chaos invariant
// compares measured availability against.
double chaos_availability_floor(const QuorumFamily& family, double p,
                                double slack);

// Theorem 9 envelope: slack_factor * epsilon^(2 alpha) + noise_floor, with
// epsilon = 2m/(1+m) for per-probe miss probability m. The slack factor
// absorbs the gap between the i.i.d. model and the simulator's temporal
// correlation; the noise floor absorbs small-sample Monte Carlo jitter.
double chaos_stale_envelope(int alpha, double per_probe_miss,
                            double slack_factor, double noise_floor);

// The shipped scenario grid for `family`'s fleet (n = universe_size(),
// alpha = alpha()): steady flaky links, a mass-crash "any alpha up" window,
// rolling churn, a gray half-fleet, a partition storm (filter on), lossy
// bursts, and an amnesia-churn detector scenario. Floors/envelopes are
// derived from the family's exact availability and Theorem 9. This overload
// cannot name the family as data, so the scenarios carry an empty spec and
// no membership churn cells.
std::vector<ChaosScenario> builtin_chaos_scenarios(const QuorumFamily& family);

// The same grid built from a spec: every scenario carries the spec (so it
// serializes), and resizable specs gain the churn_replace / churn_resize
// reconfiguration cells.
std::vector<ChaosScenario> builtin_chaos_scenarios(const FamilySpec& spec);

// Rolling one-server-per-wave replacement (3 waves): clients with stale
// views must observably refresh; adjacent-epoch quorums must intersect;
// no acked write may be stranded on a retired server. Requires a resizable
// spec.
ChaosScenario churn_replace_chaos_scenario(const FamilySpec& spec);

// Grow the membership by two servers mid-run, then shrink back. Same churn
// invariants as churn_replace, plus Bitset/Configuration reshape coverage
// across universe sizes.
ChaosScenario churn_resize_chaos_scenario(const FamilySpec& spec);

// Designed-to-fail reconfiguration scenario (explicit-only, never in the
// builtin grid): clients never refresh their views (refresh_views = false)
// and retired servers keep serving (the serve_while_retired bug switch), so
// stale clients silently read from — and strand writes on — servers the
// current epoch retired. The strict no-read-from-retired-server invariant
// and view-refresh-converges MUST trip; a clean report means the checkers
// are blind. CI validates the resulting black box.
ChaosScenario stale_view_chaos_scenario(const FamilySpec& spec);

// Byzantine scenario: the first `b` servers lie for 80% of the run (see
// make_byzantine_plan), clients vote with lie_tolerance = family.masking_b().
// The availability floor discounts the b liars from both the universe and
// the accept threshold (exact_byzantine_availability); the stale envelope is
// unconstrained (liars poison the iid model) but the fabricated-write and
// lost-write invariants are strict. builtin_chaos_scenarios() appends this
// scenario automatically when family.masking_b() >= b > 0; building it
// explicitly for a plain family yields the designed-to-fail configuration
// whose black box the CI smoke validates.
ChaosScenario byzantine_chaos_scenario(const QuorumFamily& family, int b);

// Runs `replicates` independent runs of every scenario and evaluates its
// invariants; results are index-aligned with `scenarios`. When an invariant
// is violated, the flight recorder is enabled, and `blackbox_path` is
// non-empty, the merged flight-recorder dump (the black box of the run) is
// written there automatically.
std::vector<ChaosCellResult> run_chaos(
    const QuorumFamily& family, const std::vector<ChaosScenario>& scenarios,
    int replicates, const TrialOptions& opts = {},
    const std::string& blackbox_path = "");

}  // namespace sqs
