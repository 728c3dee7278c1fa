#include "runtime/scratch.h"

#include "obs/telemetry.h"

namespace sqs {

namespace {

// Pool telemetry: in steady state cache_misses stops moving — the signal
// that the hot paths no longer touch the heap.
struct ArenaMetrics {
  obs::Counter cache_hits =
      obs::Registry::instance().counter("runtime.arena.cache_hits");
  obs::Counter cache_misses =
      obs::Registry::instance().counter("runtime.arena.cache_misses");
  obs::Counter bytes_reused =
      obs::Registry::instance().counter("runtime.arena.bytes_reused");

  static const ArenaMetrics& get() {
    static const ArenaMetrics metrics;
    return metrics;
  }
};

}  // namespace

WorkerScratch& WorkerScratch::for_thread() {
  thread_local WorkerScratch scratch;
  return scratch;
}

void WorkerScratch::record_cache_hit(std::size_t bytes) {
  const ArenaMetrics& metrics = ArenaMetrics::get();
  metrics.cache_hits.add();
  metrics.bytes_reused.add(static_cast<std::uint64_t>(bytes));
}

void WorkerScratch::record_cache_miss() { ArenaMetrics::get().cache_misses.add(); }

}  // namespace sqs
