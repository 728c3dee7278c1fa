// Shared execution engine for every Monte Carlo path in the repository.
//
// The repo's estimates (availability Monte Carlo, two-client
// non-intersection sampling, probe-complexity measurements, register
// replication sweeps) are embarrassingly parallel across trials, but were
// historically private single-threaded loops. This module provides the one
// pool they all share. Scheduling is work-stealing-lite: chunks of trials
// sit in a single shared pile and every participating thread (the caller
// included) steals the next unclaimed chunk via an atomic ticket, which
// load-balances like per-worker deques without their bookkeeping. The pool
// never affects results: chunk seeding and reduction order are fixed by
// run_sweep (see run_trials.h), so outputs are bit-identical for any
// thread count.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sqs {

// Effective thread count used when a caller does not pin one explicitly:
// set_default_threads(n) if set, else the SQS_THREADS environment variable,
// else std::thread::hardware_concurrency() (minimum 1).
int default_threads();

// Overrides the process-wide default; n <= 0 restores automatic selection.
void set_default_threads(int n);

// Parses a thread-count token: a full-string integer in [1, 4096]. Returns
// 0 for anything else (empty, trailing junk, out of range). One validated
// parser shared by the SQS_THREADS environment variable and the --threads
// command-line flag.
int parse_thread_count(const char* text);

// Scans argv for "--threads N" or "--threads=N" and applies
// set_default_threads; returns the parsed value (0 if absent). Rejected
// values are reported on stderr and ignored. Shared by the bench drivers
// and the CLI.
int init_threads_from_args(int argc, char** argv);

class ThreadPool {
 public:
  // The lazily created process-wide pool, grown to at least `min_workers`
  // resident worker threads (the caller of for_each_chunk participates too,
  // so max_threads-1 workers suffice for max_threads-way parallelism).
  static ThreadPool& global(int min_workers);

  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Spawns additional resident workers until at least `workers` exist.
  void ensure_workers(int workers);

  int workers() const;

  // Runs fn(c) for every c in [0, num_chunks) across at most `max_threads`
  // threads (including the calling thread, which participates). Blocks until
  // every claimed chunk finished. If any fn throws, remaining unclaimed
  // chunks are abandoned and the exception from the lowest-indexed throwing
  // chunk is rethrown here. When max_threads <= 1, num_chunks <= 1, or the
  // call comes from inside a chunk (a nested run), the chunks run inline on
  // the caller in ascending order instead, without touching the pool or its
  // batch metrics — so nesting never deadlocks.
  void for_each_chunk(std::uint64_t num_chunks, int max_threads,
                      const std::function<void(std::uint64_t)>& fn);

 private:
  void worker_loop();
  // Claim-and-execute loop shared by workers and the calling thread.
  void run_chunks();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  bool stop_ = false;

  // Serializes concurrent for_each_chunk callers (one batch at a time).
  std::mutex batch_mu_;

  // State of the current batch; written under mu_ before workers wake.
  std::uint64_t generation_ = 0;
  const std::function<void(std::uint64_t)>* fn_ = nullptr;
  std::uint64_t num_chunks_ = 0;
  std::atomic<std::uint64_t> next_chunk_{0};
  std::atomic<bool> abort_{false};
  int slots_ = 0;    // workers still allowed to join this batch
  int running_ = 0;  // workers currently executing chunks
  std::exception_ptr error_;
  std::uint64_t error_chunk_ = ~0ull;
};

}  // namespace sqs
