#include "sim/harness.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace sqs {

namespace {

using obs::us;

// Acquisition latency per client, in simulated microseconds. Registered
// lazily (first instrumented experiment) so a disabled run never touches the
// registry; names are shared across replicates, so replicated sweeps merge
// into one histogram per client index.
obs::Histogram client_latency_histogram(int client_idx) {
  return obs::Registry::instance().histogram(
      "sim.client" + std::to_string(client_idx) + ".op_latency_us",
      obs::pow2_bounds(6, 26));
}

// Counts an applied fault event: sim.faults.injected plus one counter per
// kind, the four lie modes (the last kinds) sharing sim.faults.lie.
void count_fault(FaultEvent::Kind kind) {
  static_assert(static_cast<int>(FaultEvent::Kind::kLieWrongValue) == 8);
  static const std::array<obs::Counter, 10> counters = [] {
    static const char* const kNames[] = {
        "injected",         "crash",      "pin",
        "gray",             "link_down",  "client_partition",
        "server_partition", "latency_burst", "loss_burst",
        "lie"};
    std::array<obs::Counter, 10> out;
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = obs::Registry::instance().counter(std::string("sim.faults.") +
                                                 kNames[i]);
    return out;
  }();
  counters[0].add(1);
  counters[1 + std::min<std::size_t>(static_cast<std::size_t>(kind), 8)].add(1);
}

struct Experiment final : SimSink {
  const QuorumFamily* family;
  RegisterExperimentConfig config;
  Simulator sim;
  std::unique_ptr<Transport> net;
  std::vector<Replica> servers;
  std::deque<SimClient> clients;
  Rng rng;
  Rng partition_rng;
  // Epoch mode: the mutable cursor all clients compare their view against.
  EpochState epoch_state;
  RegisterExperimentResult result;
  // Genuine bindings, the completed-write frontier and the highest acked
  // write. Ok reads are audited for fabrication at end-of-run — after the
  // grace period every write completion callback has fired, so a read that
  // raced its writer's completion is not a false alarm.
  RegisterAudit audit;
  // Per-client frontier of observed read timestamps (monotonic-read check).
  std::vector<Timestamp> last_read_ts;
  std::uint64_t next_value = 1;
  struct ReadObservation {
    obs::OpId op = obs::kNoOp;
    Timestamp ts;
    std::uint64_t value = 0;
  };
  std::vector<ReadObservation> read_observations;
  // Empty unless telemetry was enabled when the experiment started.
  std::vector<obs::Histogram> latency_hists;

  // Completion bookkeeping every op shares; `on_ok` adds the read- or
  // write-specific part for a successful op.
  template <class Result, class OnOk>
  void complete_op(int client_idx, const char* kind, const Result& r,
                   OnOk on_ok) {
    result.probes_per_op.add(r.num_probes);
    result.client_retries += r.attempts - 1;
    if (r.deadline_exceeded) ++result.deadline_failures;
    if (r.filtered) ++result.ops_filtered;
    if (r.ok) {
      result.latency_ok.add(r.latency);
      result.latencies_ok.push_back(r.latency);
      on_ok();
    }
    obs::flight(obs::FlightKind::kOpDone, r.op, us(sim.now()), -1,
                us(r.latency));
    if (!latency_hists.empty()) {
      obs::instant("sim", kind, "client",
                   static_cast<std::uint64_t>(client_idx));
      if (r.ok)
        latency_hists[static_cast<std::size_t>(client_idx)].record(
            static_cast<std::uint64_t>(r.latency * 1e6));
    }
    schedule_next_op(client_idx);
  }

  // Crosses the boundary into epoch `e_idx` (state transfer, then the
  // membership flip); stale clients now see either fences (retired servers)
  // or newer epoch stamps in replies — both observable triggers for a view
  // refresh.
  void cross_epoch(int e_idx) {
    apply_epoch_transition(*config.epochs, e_idx, servers);
    epoch_state.current = e_idx;
    ++result.epoch_transitions;
    obs::flight(obs::FlightKind::kEpochTransition, obs::kNoOp, us(sim.now()),
                -1, static_cast<std::uint64_t>(e_idx));
  }

  void on_event(const SimEvent& ev) override {
    switch (ev.kind) {
      case SimEvent::Kind::kThink: return start_op(ev.client);
      case SimEvent::Kind::kEpoch:
        return cross_epoch(static_cast<int>(ev.value));
      case SimEvent::Kind::kPartition: return inject_partition();
      case SimEvent::Kind::kFault:
        return apply_fault(config.plan.events[ev.value]);
      default: assert(false && "not a harness event");
    }
  }

  void apply_fault(const FaultEvent& ev) {
    apply_fault_event(ev, sim.now(), servers, *net);
    count_fault(ev.kind);
    obs::instant("faults", fault_kind_name(ev.kind), "target",
                 static_cast<std::uint64_t>(ev.server >= 0   ? ev.server
                                            : ev.client >= 0 ? ev.client
                                                             : 0));
  }

  // One partial client partition, then the next arrival of the Poisson
  // injector.
  void inject_partition() {
    if (sim.now() >= config.duration) return;
    const int victim = static_cast<int>(partition_rng.next_below(
        static_cast<std::uint64_t>(config.num_clients)));
    net->partition_client_partial(victim, config.partition_fraction,
                                  sim.now(), config.partition_duration);
    sim.schedule(partition_rng.exponential(config.partition_rate),
                 {.target = this, .kind = SimEvent::Kind::kPartition});
  }

  void schedule_next_op(int client_idx) {
    if (sim.now() >= config.duration) return;
    const double delay = rng.exponential(1.0 / config.think_time);
    sim.schedule(delay, {.target = this,
                         .kind = SimEvent::Kind::kThink,
                         .client = client_idx});
  }

  void start_op(int client_idx) {
    if (sim.now() >= config.duration) return;
    if (rng.bernoulli(config.read_fraction)) {
      ++result.reads_attempted;
      // Snapshot the frontier of completed writes; a successful read must
      // not return anything older.
      const Timestamp frontier = audit.frontier(sim.now());
      clients[static_cast<std::size_t>(client_idx)].read(
          [this, client_idx, frontier](ReadResult r) {
            complete_op(client_idx, "read", r, [&] {
              ++result.reads_ok;
              if (r.timestamp < frontier) {
                ++result.stale_reads;
                obs::flight(obs::FlightKind::kStaleRead, r.op, us(sim.now()));
              }
              Timestamp& last =
                  last_read_ts[static_cast<std::size_t>(client_idx)];
              if (r.timestamp < last) {
                ++result.read_ts_regressions;
                obs::flight(obs::FlightKind::kReadRegression, r.op,
                            us(sim.now()));
              } else {
                last = r.timestamp;
              }
              read_observations.push_back({r.op, r.timestamp, r.value});
            });
          });
    } else {
      ++result.writes_attempted;
      const std::uint64_t value = next_value++;
      clients[static_cast<std::size_t>(client_idx)].write(
          value, [this, client_idx, value](WriteResult w) {
            complete_op(client_idx, "write", w, [&] {
              ++result.writes_ok;
              audit.record_write(w.timestamp, value, w.acks > 0, sim.now());
            });
          });
    }
  }
};

}  // namespace

bool RegisterExperimentConfig::validate() const {
  bool ok = true;
  const auto reject = [&ok](const char* what, double value) {
    std::fprintf(stderr, "RegisterExperimentConfig: invalid %s %g\n", what,
                 value);
    ok = false;
  };
  if (num_clients < 1) reject("num_clients", num_clients);
  if (!(duration > 0.0)) reject("duration", duration);
  if (!(think_time > 0.0)) reject("think_time", think_time);
  if (!(read_fraction >= 0.0 && read_fraction <= 1.0))
    reject("read_fraction", read_fraction);
  if (!(partition_rate >= 0.0)) reject("partition_rate", partition_rate);
  if (!(partition_fraction >= 0.0 && partition_fraction <= 1.0))
    reject("partition_fraction", partition_fraction);
  if (!(partition_duration >= 0.0))
    reject("partition_duration", partition_duration);
  if (!network.validate()) ok = false;
  if (!server.validate()) ok = false;
  if (!client.validate()) ok = false;
  if (epochs != nullptr && !epochs->validate()) ok = false;
  return ok;
}

RegisterExperimentResult run_register_experiment(
    const QuorumFamily& family, const RegisterExperimentConfig& config) {
  if (!config.validate()) return {};  // rejected; details already on stderr
  obs::Span span("sim", "register_experiment");
  span.arg("clients", static_cast<std::uint64_t>(config.num_clients));
  Experiment e;
  e.family = &family;
  e.config = config;
  e.rng = Rng(config.seed);
  if (obs::telemetry_enabled()) {
    e.latency_hists.reserve(static_cast<std::size_t>(config.num_clients));
    for (int c = 0; c < config.num_clients; ++c)
      e.latency_hists.push_back(client_latency_histogram(c));
  }
  // Epoch mode sizes the fleet to every logical id the schedule will ever
  // use; `family` is epoch 0's family (clients resolve the active family
  // from their own view, so it only seeds the classic code path).
  const bool epoch_mode = config.epochs != nullptr;
  const int n = epoch_mode ? config.epochs->num_logical : family.universe_size();

  if (!config.plan.validate(config.num_clients, n)) return {};

  e.net = std::make_unique<Transport>(config.num_clients, n, config.network,
                                      e.rng.split("network"));
  e.servers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    e.servers.emplace_back(i, config.server,
                           e.rng.split(1000 + static_cast<std::uint64_t>(i)));
  if (epoch_mode) {
    e.epoch_state.schedule = config.epochs.get();
    e.epoch_state.current = 0;
    // Servers that only join in a later epoch start retired.
    const MembershipView& initial = config.epochs->entry(0).view;
    for (int i = 0; i < n; ++i)
      e.servers[static_cast<std::size_t>(i)].set_member(initial.contains(i));
  }
  for (int c = 0; c < config.num_clients; ++c)
    e.clients.emplace_back(&e.sim, e.net.get(), &e.servers, c, &family,
                           config.client,
                           e.rng.split(2000 + static_cast<std::uint64_t>(c)),
                           epoch_mode ? &e.epoch_state : nullptr);
  e.last_read_ts.assign(static_cast<std::size_t>(config.num_clients),
                        Timestamp{});

  // The fault plan, then the epoch transitions, go on the queue before the
  // first load event; sim.now() is still 0, so each delay is the absolute
  // time. Neither draws randomness, so runs with and without them consume
  // identical rng streams for everything else.
  for (std::size_t i = 0; i < config.plan.events.size(); ++i)
    e.sim.schedule(config.plan.events[i].at,
                   {.target = &e,
                    .kind = SimEvent::Kind::kFault,
                    .value = static_cast<std::uint64_t>(i)});
  if (epoch_mode) {
    for (int ei = 1; ei < config.epochs->num_epochs(); ++ei)
      e.sim.schedule(config.epochs->entry(ei).at,
                     {.target = &e,
                      .kind = SimEvent::Kind::kEpoch,
                      .value = static_cast<std::uint64_t>(ei)});
  }

  for (int c = 0; c < config.num_clients; ++c) e.schedule_next_op(c);

  // Partition injector.
  if (config.partition_rate > 0.0) {
    e.partition_rng = e.rng.split("partitions");
    e.sim.schedule(e.partition_rng.exponential(config.partition_rate),
                   {.target = &e, .kind = SimEvent::Kind::kPartition});
  }
  // Allow in-flight operations a grace period to finish.
  e.sim.run_until(config.duration + 60.0);
  e.result.events_executed = e.sim.executed_events();
  e.result.peak_event_queue = e.sim.peak_pending_events();

  const ReplicaCounts counts = fleet_counts(e.servers);
  e.result.server_ts_regressions = static_cast<long>(counts.ts_regressions);
  e.result.server_dropped_requests = counts.dropped_requests;
  e.result.lies_told = counts.lies_told;
  publish_replica_counts("sim.server", counts);
  if (e.audit.lost_acked_write(e.servers)) {
    e.result.lost_writes = 1;
    obs::flight(obs::FlightKind::kLostWrite, obs::kNoOp, us(e.sim.now()), -1,
                static_cast<std::uint64_t>(e.audit.max_acked().counter));
  }
  // Fabricated-read audit: a binding no genuine write produced is a
  // fabrication a lying server smuggled past the client.
  for (const Experiment::ReadObservation& seen : e.read_observations) {
    if (!e.audit.genuine(seen.ts, seen.value)) {
      ++e.result.fabricated_reads;
      obs::flight(obs::FlightKind::kFabricatedRead, seen.op, us(e.sim.now()),
                  -1, seen.value);
    }
  }
  // Churn telemetry and the view-refresh-converges evidence: a client left
  // holding a pre-final view at the end of a run is a convergence failure
  // candidate (chaos decides whether the scenario allows it).
  if (epoch_mode) {
    const int final_epoch = config.epochs->final_epoch();
    for (const SimClient& c : e.clients) {
      e.result.view_refreshes += static_cast<long>(c.view_refreshes());
      e.result.epoch_rejects += static_cast<long>(c.epoch_rejects());
      e.result.retired_reads += static_cast<long>(c.retired_reads());
      if (c.view_epoch() != final_epoch) ++e.result.stale_views_at_end;
    }
  }
  e.result.net_delivered = e.net->messages_delivered();
  e.result.net_dropped = e.net->messages_dropped();
  publish_transport_counts("sim.net", *e.net);

  span.arg("events", e.sim.executed_events());
  return e.result;
}

ReplicatedRegisterResult run_register_experiment_replicated(
    const QuorumFamily& family, const RegisterExperimentConfig& config,
    int replicates, const TrialOptions& opts) {
  // One replicate per chunk: chunk index == replicate index, so the runtime
  // hands replicate r the rng Rng(config.seed).split(r) and concatenates
  // results in replicate order regardless of which thread ran which.
  TrialOptions per_replicate = opts;
  per_replicate.chunk_size = 1;
  ReplicatedRegisterResult out;
  out.results = run_trials(
      static_cast<std::uint64_t>(replicates), Rng(config.seed),
      std::vector<RegisterExperimentResult>{},
      [&](std::vector<RegisterExperimentResult>& acc, std::uint64_t t,
          Rng& rng) {
        // Replicates restart simulated time at zero; the run scope keeps
        // their flight events totally ordered in the merged dump.
        obs::FlightRunScope run_scope(static_cast<std::uint32_t>(t));
        RegisterExperimentConfig replicate_config = config;
        replicate_config.seed = rng.next_u64();
        acc.push_back(run_register_experiment(family, replicate_config));
      },
      [](std::vector<RegisterExperimentResult>& total,
         std::vector<RegisterExperimentResult>&& part) {
        for (auto& r : part) total.push_back(std::move(r));
      },
      per_replicate);

  for (const RegisterExperimentResult& r : out.results) {
    out.availability.add(r.availability());
    out.stale_read_fraction.add(r.stale_read_fraction());
    out.probes_per_op.add(r.probes_per_op.mean());
    out.latency_p99.add(r.latency_percentile(99));
  }
  return out;
}

}  // namespace sqs
