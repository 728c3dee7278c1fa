// Per-layer figures of the traced run. Histogram and counter figures come
// from the obs metrics the library already records; the rest time calls
// into each layer's public functions from here, over the workload's own
// inputs.

#include <algorithm>
#include <cstdint>

#include "bench.h"
#include "core/batch.h"
#include "mismatch/batch.h"
#include "runtime/scratch.h"
#include "service/message.h"
#include "service/replica.h"
#include "sim/transport.h"

namespace perfbench {
namespace {

// Keeps timed results observable so the compiler cannot drop the calls.
volatile std::uint64_t g_sink = 0;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Sums histograms that share bucket bounds into one snapshot.
sqs::obs::HistogramSnapshot merge_histograms(
    const sqs::obs::MetricsSnapshot& snap,
    const std::vector<const char*>& names) {
  sqs::obs::HistogramSnapshot merged;
  for (const char* name : names) {
    const sqs::obs::HistogramSnapshot* h = snap.histogram(name);
    if (h == nullptr || h->count == 0) continue;
    if (merged.count == 0) {
      merged = *h;
      continue;
    }
    if (h->bounds != merged.bounds) continue;
    for (std::size_t b = 0; b < merged.counts.size(); ++b)
      merged.counts[b] += h->counts[b];
    merged.count += h->count;
    merged.sum += h->sum;
    merged.min = std::min(merged.min, h->min);
    merged.max = std::max(merged.max, h->max);
  }
  return merged;
}

std::uint64_t hist_sum(const sqs::obs::MetricsSnapshot& snap, const char* name) {
  const sqs::obs::HistogramSnapshot* h = snap.histogram(name);
  return h == nullptr ? 0 : h->sum;
}

// Transport::attempt at monotone times over every (client, server) link.
double time_transport_attempt(int clients, int servers,
                              const sqs::NetworkConfig& network,
                              std::uint64_t seed) {
  constexpr int kAttempts = 400000;
  sqs::Transport transport(clients, servers, network, sqs::Rng(seed));
  const int links = clients * servers;
  double now = 0.0;
  std::uint64_t delivered = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kAttempts; ++i) {
    const int link = i % links;
    now += 1e-4;
    delivered += transport.attempt(link / servers, link % servers, now).delivered;
  }
  const Clock::time_point stop = Clock::now();
  g_sink = g_sink + delivered;
  return ns_between(start, stop) / kAttempts;
}

}  // namespace

void runtime_layers(const sqs::obs::MetricsSnapshot& snap, double wall_s,
                    int threads, bool served, MetricList& out) {
  // A pool chunk is one stage of one request batch on the served path, and
  // one sweep chunk elsewhere (nested run_trial_chunks calls run inline
  // inside it, so the two chunk histograms are never summed).
  sqs::obs::HistogramSnapshot chunks;
  if (served) {
    chunks = merge_histograms(snap, {"service.prologue_batch_ns",
                                     "service.solo_batch_ns",
                                     "service.epilogue_batch_ns"});
  } else {
    chunks = merge_histograms(snap, {"sweep.chunk_wall_ns"});
    if (chunks.count == 0) chunks = merge_histograms(snap, {"runtime.chunk_wall_ns"});
  }
  out.add("runtime.chunk_us_p50", chunks.p50() / 1e3, "us");
  out.add("runtime.chunk_us_p99", chunks.p99() / 1e3, "us");
  const sqs::obs::HistogramSnapshot* steal = snap.histogram("runtime.steal_ns");
  out.add("runtime.steal_ns_p50", steal == nullptr ? 0.0 : steal->p50(), "ns");
  const double hits = static_cast<double>(snap.counter("runtime.arena.cache_hits"));
  const double misses =
      static_cast<double>(snap.counter("runtime.arena.cache_misses"));
  out.add("runtime.arena_hit_share", ratio(hits, hits + misses), "ratio");
  out.add("runtime.parallel_efficiency",
          ratio(static_cast<double>(chunks.sum), wall_s * 1e9 * threads),
          "ratio");
}

void service_layers(const ServeWorkload& w, const sqs::obs::MetricsSnapshot& snap,
                    double wall_s, int threads, MetricList& out) {
  const sqs::ServiceResult& r = w.result();
  const double requests = static_cast<double>(r.requests);
  const double ops = static_cast<double>(r.reads + r.writes);
  const double pro = static_cast<double>(hist_sum(snap, "service.prologue_batch_ns"));
  const double solo = static_cast<double>(hist_sum(snap, "service.solo_batch_ns"));
  const double epi = static_cast<double>(hist_sum(snap, "service.epilogue_batch_ns"));
  out.add("runner.prologue_ns_per_op", ratio(pro, requests), "ns");
  out.add("runner.solo_ns_per_op", ratio(solo, requests), "ns");
  out.add("runner.epilogue_ns_per_op", ratio(epi, requests), "ns");
  out.add("runner.solo_share", ratio(solo, pro + solo + epi), "ratio");
  out.add("runner.idle_share",
          1.0 - ratio(pro + solo + epi, wall_s * 1e9 * threads), "ratio");
  out.add("runner.cert_rejects_per_op",
          ratio(static_cast<double>(r.cert_rejects), ops), "count");
  out.add("probe.probes_per_op", ratio(static_cast<double>(r.probes), ops),
          "count");
  out.add("probe.write_acks_per_write",
          ratio(static_cast<double>(r.write_acks), static_cast<double>(r.writes)),
          "count");
  out.add("replica.drop_share",
          ratio(static_cast<double>(r.replica_dropped),
                static_cast<double>(r.probes)),
          "ratio");
  double max_busy = 0.0;
  for (int i = 0; i < w.runner().num_servers(); ++i)
    max_busy = std::max(max_busy, w.runner().replica(i).busy_seconds());
  out.add("replica.max_busy_share", ratio(max_busy, r.virtual_duration), "ratio");
  out.add("load_gen.ns_per_op", w.load_gen_ns_per_op(), "ns");

  // service/message over the workload's own request and reply records.
  const std::vector<std::uint8_t>& in = w.requests();
  const std::size_t n = in.size() / sqs::kRequestWireSize;
  std::vector<sqs::Request> reqs(n);
  Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i)
    reqs[i] = sqs::decode_request(in.data() + i * sqs::kRequestWireSize);
  Clock::time_point t1 = Clock::now();
  out.add("message.decode_request_ns", ns_between(t0, t1) / n, "ns");
  std::uint64_t sink = 0;
  t0 = Clock::now();
  for (const sqs::Request& req : reqs) sink += sqs::request_cert(req);
  t1 = Clock::now();
  out.add("message.request_cert_ns", ns_between(t0, t1) / n, "ns");

  std::vector<sqs::Reply> reps(n);
  for (std::size_t i = 0; i < n; ++i)
    sqs::decode_reply(w.replies().data() + i * sqs::kReplyWireSize, &reps[i]);
  std::vector<std::uint8_t> encoded(n * sqs::kReplyWireSize);
  t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i)
    sqs::encode_reply(reps[i], encoded.data() + i * sqs::kReplyWireSize);
  t1 = Clock::now();
  out.add("message.encode_reply_ns", ns_between(t0, t1) / n, "ns");
  const int servers = w.family().universe_size();
  t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i)
    sink += sqs::replica_cert(static_cast<int>(i % servers), reps[i].ts,
                              reps[i].value);
  t1 = Clock::now();
  out.add("message.replica_cert_ns", ns_between(t0, t1) / n, "ns");
  g_sink = g_sink + sink + encoded[encoded.size() / 2];

  // service/replica: a standalone replica with the workload's ServerConfig,
  // probes spaced wider than the service time so no queue builds.
  constexpr int kServes = 200000;
  sqs::ServiceReplica replica(0, w.config().server, sqs::Rng(w.config().seed));
  double now = 0.0;
  t0 = Clock::now();
  for (int i = 0; i < kServes; ++i) {
    now += 0.002;
    const auto served = replica.serve_read(0, now, now, i % 64);
    sink += served ? served->cert : 1;
  }
  t1 = Clock::now();
  out.add("replica.serve_read_ns", ns_between(t0, t1) / kServes, "ns");
  t0 = Clock::now();
  for (int i = 0; i < kServes; ++i) {
    now += 0.002;
    sqs::Timestamp ts;
    ts.counter = static_cast<std::uint64_t>(i) + 1;
    ts.writer = i % 64;
    const auto acked = replica.serve_write(ts, ts.counter, 0, now, now);
    sink += acked ? 1 : 0;
  }
  t1 = Clock::now();
  out.add("replica.serve_write_ns", ns_between(t0, t1) / kServes, "ns");
  g_sink = g_sink + sink;
}

void transport_layers_served(const ServeWorkload& w, MetricList& out) {
  const sqs::ServiceResult& r = w.result();
  out.add("transport.attempt_ns",
          time_transport_attempt(w.config().num_clients,
                                 w.family().universe_size(), w.config().network,
                                 w.config().seed),
          "ns");
  out.add("transport.drop_share",
          ratio(static_cast<double>(r.net_dropped),
                static_cast<double>(r.net_delivered + r.net_dropped)),
          "ratio");
}

void transport_layers_chaos(const ChaosWorkload& w, MetricList& out) {
  const ChaosGrid& grid = w.grids().front();
  const sqs::ChaosScenario& s = grid.scenarios.front();
  double delivered = 0.0, dropped = 0.0;
  for (const sqs::ChaosCellResult& c : w.cells())
    for (const sqs::RegisterExperimentResult& r : c.replicates) {
      delivered += static_cast<double>(r.net_delivered);
      dropped += static_cast<double>(r.net_dropped);
    }
  out.add("transport.attempt_ns",
          time_transport_attempt(s.config.num_clients,
                                 grid.family->universe_size(), s.config.network,
                                 s.config.seed),
          "ns");
  out.add("transport.drop_share", ratio(dropped, delivered + dropped), "ratio");
}

void sweep_layers(const SweepWorkload& w, MetricList& out) {
  // Single-threaded, chunk by chunk, with the runtime's chunk size and the
  // chunk rng the sweep would hand that chunk.
  constexpr std::uint64_t kChunks = 32;
  const std::uint64_t chunk = sqs::kDefaultTrialChunk;
  sqs::WorkerScratch& scratch = sqs::WorkerScratch::for_thread();

  double sample_ns = 0.0, accept_ns = 0.0, worlds = 0.0;
  sqs::WorldBatch batch;
  sqs::Bitset live;
  std::uint64_t sink = 0;
  for (const sqs::AvailabilityCell& cell : w.avail_cells()) {
    const sqs::Rng base(cell.seed);
    const int n = cell.family->universe_size();
    for (std::uint64_t c = 0; c < kChunks && c * chunk < cell.samples; ++c) {
      const std::uint64_t trials = std::min(chunk, cell.samples - c * chunk);
      sqs::Rng rng = base.split(c);
      const Clock::time_point t0 = Clock::now();
      sqs::sample_worlds_into(n, cell.p, trials, rng, scratch, batch);
      const Clock::time_point t1 = Clock::now();
      cell.family->accepts_batch(batch, live);
      const Clock::time_point t2 = Clock::now();
      sample_ns += ns_between(t0, t1);
      accept_ns += ns_between(t1, t2);
      worlds += static_cast<double>(trials);
      sink += live.count();
    }
  }
  out.add("core.sample_worlds_ns_per_trial", ratio(sample_ns, worlds), "ns");
  out.add("core.accepts_batch_ns_per_trial", ratio(accept_ns, worlds), "ns");

  double two_ns = 0.0, chunk_ns = 0.0, pairs = 0.0;
  sqs::TwoClientWorldBatch two;
  for (const sqs::NonintersectionCell& cell : w.nonint_cells()) {
    const int n = cell.family->universe_size();
    for (std::uint64_t c = 0; c < kChunks && c * chunk < cell.trials; ++c) {
      sqs::TrialContext ctx;
      ctx.chunk.index = c;
      ctx.chunk.begin = c * chunk;
      ctx.chunk.end = std::min(cell.trials, ctx.chunk.begin + chunk);
      ctx.arena = &scratch;
      ctx.batch = sqs::BatchPolicy::kBatched;
      const std::uint64_t trials = ctx.chunk.end - ctx.chunk.begin;

      sqs::Rng sample_rng = cell.base.split(c);
      const Clock::time_point t0 = Clock::now();
      sqs::sample_two_client_worlds_into(n, cell.model, trials, sample_rng,
                                         scratch, two);
      const Clock::time_point t1 = Clock::now();
      sqs::Rng chunk_rng = cell.base.split(c);
      sqs::NonintersectionCounts acc;
      const Clock::time_point t2 = Clock::now();
      const bool batched = sqs::nonintersection_chunk_batched(
          *cell.family, cell.model, ctx, chunk_rng, acc);
      const Clock::time_point t3 = Clock::now();
      if (!batched) continue;
      two_ns += ns_between(t0, t1);
      chunk_ns += ns_between(t2, t3);
      pairs += static_cast<double>(trials);
      sink += acc.nonintersection.successes;
    }
  }
  out.add("mismatch.sample_two_client_ns_per_trial", ratio(two_ns, pairs), "ns");
  // Self time of the walk: the batched chunk minus its own sampling.
  out.add("mismatch.nonint_walk_ns_per_trial",
          std::max(0.0, ratio(chunk_ns - two_ns, pairs)), "ns");
  g_sink = g_sink + sink;
}

void chaos_layers(const ChaosWorkload& w, double wall_s, int threads,
                  MetricList& out) {
  double events = 0.0, ops = 0.0, retries = 0.0, delivered = 0.0, dropped = 0.0;
  for (const sqs::ChaosCellResult& c : w.cells())
    for (const sqs::RegisterExperimentResult& r : c.replicates) {
      events += static_cast<double>(r.events_executed);
      ops += static_cast<double>(r.reads_attempted + r.writes_attempted);
      retries += static_cast<double>(r.client_retries);
      delivered += static_cast<double>(r.net_delivered);
      dropped += static_cast<double>(r.net_dropped);
    }
  out.add("sim.events_per_op", ratio(events, ops), "count");
  // Thread-time per event: the pass's wall time on every thread it used.
  out.add("sim.ns_per_event", ratio(wall_s * 1e9 * threads, events), "ns");
  out.add("sim.retry_share", ratio(retries, ops), "ratio");
  out.add("sim.net_drop_share", ratio(dropped, delivered + dropped), "ratio");

  // One scenario at a time: the slowest cell bounds the grid's join.
  std::vector<double> cell_ms;
  for (const ChaosGrid& grid : w.grids())
    for (const sqs::ChaosScenario& s : grid.scenarios) {
      const Clock::time_point start = Clock::now();
      sqs::run_chaos(*grid.family, {s}, w.replicates(), w.options());
      cell_ms.push_back(seconds_since(start) * 1e3);
    }
  out.add("chaos.cell_ms_p50", median(cell_ms), "ms");
  out.add("chaos.cell_ms_max", *std::max_element(cell_ms.begin(), cell_ms.end()),
          "ms");
}

}  // namespace perfbench
