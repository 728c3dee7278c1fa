// Deterministic sharded trial execution: the one chunked engine every Monte
// Carlo entry point in the repo runs on.
//
// run_sweep flattens a grid of trial workloads — cells × trial-chunks — into
// ONE submission on the shared thread pool. Cell i's chunk c covers the
// cell's trials [c*chunk_size, min(n_trials_i, (c+1)*chunk_size)) and draws
// all of its randomness from cells[i].base.split(c); per-chunk accumulators
// are merged strictly in (cell, ascending chunk) order after every chunk
// completed. Which thread executed which chunk therefore never influences
// the result: for a fixed chunk_size the output is bit-identical for 1
// thread, N threads, and the pool's inline fallback. run_trial_chunks is the
// one-cell sweep and run_trials its per-trial wrapper, so a grid cell
// reduces to exactly the bits of a standalone run over that cell. This is
// the determinism contract every estimator is written against (see
// DESIGN.md, "Parallel trial runtime").
//
// Accumulator requirements: copy-constructible (the `zero` argument is the
// per-chunk identity), and merged via a caller-supplied
// merge(Acc& into, Acc&& part). Floating-point merges are deterministic
// because the merge order is fixed — but note they need not equal a single
// unchunked sequential loop, which is why the estimators define their
// published output as the chunked reduction.
//
// Telemetry: every call records sweep.runs / sweep.cells, and every chunk
// sweep.chunks_executed, a sweep.chunk_wall_ns sample and a "sweep"/"chunk"
// span (all gated like every metric, see obs/telemetry.h).

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/scratch.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace sqs {

inline constexpr std::uint64_t kDefaultTrialChunk = 1024;

// How a chunk kernel evaluates its trials (see DESIGN.md §3.12):
//   kScalar       — the original one-trial-at-a-time loop (the oracle).
//   kBatched      — structure-of-arrays kernels, 64 trials per word pass.
//   kDifferential — run both and throw std::runtime_error on the first trial
//                   whose batched bit differs from the scalar oracle's.
// Batched kernels draw the chunk rng in exactly the scalar order, so all
// three policies consume identical rng streams and kScalar/kBatched publish
// bit-identical estimates; kDifferential is the proof harness.
enum class BatchPolicy { kScalar, kBatched, kDifferential };

const char* batch_policy_name(BatchPolicy policy);
// Parses "scalar" / "batched" / "differential"; returns false on any other
// spelling and leaves `out` untouched.
bool parse_batch_policy(const std::string& text, BatchPolicy& out);

struct TrialOptions {
  // Total participating threads (caller included); 0 means default_threads().
  int threads = 0;
  // Trials per shard; also the granularity of rng splitting and reduction.
  std::uint64_t chunk_size = kDefaultTrialChunk;
  // Trial evaluation policy, forwarded to every chunk via TrialContext.
  BatchPolicy batch = BatchPolicy::kScalar;
};

struct TrialChunk {
  std::uint64_t index = 0;  // chunk number, the Rng::split argument
  std::uint64_t begin = 0;  // first trial (global index, inclusive)
  std::uint64_t end = 0;    // last trial (global index, exclusive)
};

// What a chunk callback receives: the trial range plus the executing
// thread's scratch (always non-null inside the runtime). The scratch is
// resolved per chunk on the thread that runs it, never captured from the
// submitting caller.
struct TrialContext {
  TrialChunk chunk;
  WorkerScratch* arena = nullptr;
  // Policy the submitting caller selected; kernels that have no batched
  // implementation simply ignore it and stay scalar.
  BatchPolicy batch = BatchPolicy::kScalar;

  WorkerScratch& scratch() const {
    assert(arena != nullptr);
    return *arena;
  }
};

// One grid cell's trial workload: `n_trials` trials, all randomness derived
// from `base` by per-chunk splitting.
struct SweepCell {
  std::uint64_t n_trials = 0;
  Rng base;
};

namespace runtime_detail {
// Telemetry handles shared by every run_sweep instantiation; the handles are
// resolved once, the per-chunk cost is the recording itself (one branch on a
// relaxed atomic when telemetry is off).
struct SweepMetrics {
  obs::Counter sweeps = obs::Registry::instance().counter("sweep.runs");
  obs::Counter cells = obs::Registry::instance().counter("sweep.cells");
  obs::Counter chunks =
      obs::Registry::instance().counter("sweep.chunks_executed");
  obs::Histogram wall_ns = obs::Registry::instance().histogram(
      "sweep.chunk_wall_ns", obs::pow2_bounds(10, 34));

  static const SweepMetrics& get() {
    static const SweepMetrics metrics;
    return metrics;
  }
};
}  // namespace runtime_detail

// Runs every cell's chunks in one flattened pool submission.
// chunk_fn(cell_index, Acc&, const TrialContext&, Rng&) processes one chunk
// of one cell against a fresh accumulator copied from `zero`; merge(Acc&,
// Acc&&) folds chunk accumulators into the cell result in chunk order.
// Returns one accumulator per cell, index-aligned with `cells`.
template <typename Acc, typename ChunkFn, typename MergeFn>
std::vector<Acc> run_sweep(const std::vector<SweepCell>& cells, const Acc& zero,
                           ChunkFn&& chunk_fn, MergeFn&& merge,
                           const TrialOptions& opts = {}) {
  const std::uint64_t chunk_size =
      opts.chunk_size > 0 ? opts.chunk_size : kDefaultTrialChunk;
  // first_chunk[i] = flat index of cell i's chunk 0 (prefix sums).
  std::vector<std::uint64_t> first_chunk(cells.size() + 1, 0);
  for (std::size_t i = 0; i < cells.size(); ++i)
    first_chunk[i + 1] = first_chunk[i] +
                         (cells[i].n_trials + chunk_size - 1) / chunk_size;
  const std::uint64_t total_chunks = first_chunk.back();

  std::vector<Acc> results(cells.size(), zero);
  if (total_chunks == 0) return results;

  if (obs::telemetry_enabled()) {
    const runtime_detail::SweepMetrics& metrics =
        runtime_detail::SweepMetrics::get();
    metrics.sweeps.add();
    metrics.cells.add(cells.size());
  }

  std::vector<Acc> parts(static_cast<std::size_t>(total_chunks), zero);
  auto process = [&](std::uint64_t g) {
    // Map the flat chunk index back to (cell, local chunk).
    const std::size_t cell = static_cast<std::size_t>(
        std::upper_bound(first_chunk.begin(), first_chunk.end(), g) -
        first_chunk.begin() - 1);
    TrialContext ctx;
    ctx.chunk.index = g - first_chunk[cell];
    ctx.chunk.begin = ctx.chunk.index * chunk_size;
    ctx.chunk.end =
        std::min(cells[cell].n_trials, ctx.chunk.begin + chunk_size);
    ctx.arena = &WorkerScratch::for_thread();
    ctx.batch = opts.batch;
    Rng rng = cells[cell].base.split(ctx.chunk.index);
    Acc& part = parts[static_cast<std::size_t>(g)];
    if (obs::telemetry_enabled()) {
      const runtime_detail::SweepMetrics& metrics =
          runtime_detail::SweepMetrics::get();
      obs::Span span("sweep", "chunk");
      span.arg("cell", cell);
      span.arg("chunk", ctx.chunk.index);
      const std::uint64_t start_ns = obs::trace_now_ns();
      chunk_fn(cell, part, ctx, rng);
      metrics.wall_ns.record(obs::trace_now_ns() - start_ns);
      metrics.chunks.add();
    } else {
      chunk_fn(cell, part, ctx, rng);
    }
  };

  // Single-threaded and nested calls run inline inside the pool: same
  // chunking, same merge order below, hence the same bits.
  const int threads = opts.threads > 0 ? opts.threads : default_threads();
  ThreadPool::global(threads - 1).for_each_chunk(total_chunks, threads,
                                                 process);

  for (std::size_t i = 0; i < cells.size(); ++i)
    for (std::uint64_t g = first_chunk[i]; g < first_chunk[i + 1]; ++g)
      merge(results[i], std::move(parts[static_cast<std::size_t>(g)]));
  return results;
}

// Single-workload entry point for consumers that amortize per-shard setup
// (probe-strategy instances, scratch buffers) across a whole chunk: the
// one-cell run_sweep. chunk_fn(Acc&, const TrialContext&, Rng&) runs the
// chunk's trials against a fresh accumulator copied from `zero` and the
// chunk's private rng.
template <typename Acc, typename ChunkFn, typename MergeFn>
Acc run_trial_chunks(std::uint64_t n_trials, const Rng& base, const Acc& zero,
                     ChunkFn&& chunk_fn, MergeFn&& merge,
                     const TrialOptions& opts = {}) {
  std::vector<Acc> result = run_sweep(
      {SweepCell{n_trials, base}}, zero,
      [&](std::size_t, Acc& acc, const TrialContext& ctx, Rng& rng) {
        chunk_fn(acc, ctx, rng);
      },
      std::forward<MergeFn>(merge), opts);
  return std::move(result.front());
}

// Trial-level entry point: per_trial(Acc&, std::uint64_t trial_index, Rng&)
// is called once per trial with the chunk's rng (shared sequentially by the
// trials of one chunk).
template <typename Acc, typename TrialFn, typename MergeFn>
Acc run_trials(std::uint64_t n_trials, const Rng& base, const Acc& zero,
               TrialFn&& per_trial, MergeFn&& merge,
               const TrialOptions& opts = {}) {
  return run_trial_chunks(
      n_trials, base, zero,
      [&](Acc& acc, const TrialContext& ctx, Rng& rng) {
        for (std::uint64_t t = ctx.chunk.begin; t < ctx.chunk.end; ++t)
          per_trial(acc, t, rng);
      },
      std::forward<MergeFn>(merge), opts);
}

}  // namespace sqs
