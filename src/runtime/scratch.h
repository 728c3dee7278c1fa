// Per-worker scratch for the trial runtime.
//
// The deterministic runtime (run_trials.h) executes millions of short
// chunks; without this layer every chunk paid heap allocations for its
// kernel temporaries (probe records, sampled worlds, configurations).
// WorkerScratch gives every thread a private generic object pool
// (borrow<T>() / give_object) keyed by type: returned objects keep their
// internal capacity, so a reused ProbeRecord or Configuration re-sized via
// reshape() allocates nothing, and those allocations happen once per thread
// for the lifetime of the process.
//
// Determinism: the pool only changes where bytes live. It never draws
// randomness, never reorders the ascending-chunk reduction, and a reused
// object is always reshape()d to the exact observable state a freshly
// constructed one would have — the bit-identity tests of test_runtime /
// test_sweep run unchanged against pool-backed kernels.
//
// Telemetry (all gated on obs::metrics_enabled, see obs/telemetry.h):
//   runtime.arena.cache_hits    takes served from a free list
//   runtime.arena.cache_misses  takes that had to heap-allocate
//   runtime.arena.bytes_reused  object bytes served from reuse
// In steady state cache_misses stops moving — asserted by
// tests/test_arena.cpp and visible in BENCH_sweep.json.
//
// Thread safety: a WorkerScratch belongs to exactly one thread
// (for_thread() hands out a thread_local). Borrowed<T> must be destroyed on
// the thread that will reuse the object next — it returns the object to the
// *current* thread's scratch, which is always safe.

#pragma once

#include <cstddef>
#include <memory>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sqs {

class WorkerScratch;

// RAII loan of a pooled object: dereferences like a pointer and returns the
// object to the current thread's WorkerScratch on destruction.
template <typename T>
class Borrowed {
 public:
  Borrowed() = default;
  explicit Borrowed(std::unique_ptr<T> obj) : obj_(std::move(obj)) {}
  Borrowed(Borrowed&&) noexcept = default;
  Borrowed& operator=(Borrowed&&) noexcept = default;
  Borrowed(const Borrowed&) = delete;
  Borrowed& operator=(const Borrowed&) = delete;
  ~Borrowed();

  T& operator*() const { return *obj_; }
  T* operator->() const { return obj_.get(); }
  T* get() const { return obj_.get(); }

 private:
  std::unique_ptr<T> obj_;
};

class WorkerScratch {
 public:
  // The calling thread's private scratch (created on first use, retained
  // for the thread's lifetime).
  static WorkerScratch& for_thread();

  WorkerScratch() = default;
  WorkerScratch(const WorkerScratch&) = delete;
  WorkerScratch& operator=(const WorkerScratch&) = delete;

  // Takes a pooled T (default-constructed on a cold pool). The object's
  // state is whatever the previous user left; callers must reshape/assign
  // every field they read — which the runtime kernels do anyway, because a
  // fresh object needs the same initialization.
  template <typename T>
  std::unique_ptr<T> take_object() {
    ObjectPool<T>& pool = pool_for<T>();
    if (!pool.free.empty()) {
      std::unique_ptr<T> obj = std::move(pool.free.back());
      pool.free.pop_back();
      record_cache_hit(sizeof(T));
      return obj;
    }
    record_cache_miss();
    return std::make_unique<T>();
  }

  template <typename T>
  void give_object(std::unique_ptr<T> obj) {
    if (!obj) return;
    ObjectPool<T>& pool = pool_for<T>();
    if (pool.free.size() < kMaxPooledPerType) pool.free.push_back(std::move(obj));
  }

  // take_object wrapped in RAII; the loan ends on the destroying thread's
  // scratch (see Borrowed).
  template <typename T>
  Borrowed<T> borrow() {
    return Borrowed<T>(take_object<T>());
  }

 private:
  struct PoolBase {
    virtual ~PoolBase() = default;
  };
  template <typename T>
  struct ObjectPool : PoolBase {
    std::vector<std::unique_ptr<T>> free;
  };

  template <typename T>
  ObjectPool<T>& pool_for() {
    std::unique_ptr<PoolBase>& slot = pools_[std::type_index(typeid(T))];
    if (!slot) slot = std::make_unique<ObjectPool<T>>();
    return static_cast<ObjectPool<T>&>(*slot);
  }

  // Telemetry recording (runtime.arena.*), defined in scratch.cpp so the
  // header does not pull in obs/telemetry.h.
  static void record_cache_hit(std::size_t bytes);
  static void record_cache_miss();

  static constexpr std::size_t kMaxPooledPerType = 32;

  std::unordered_map<std::type_index, std::unique_ptr<PoolBase>> pools_;
};

template <typename T>
Borrowed<T>::~Borrowed() {
  if (obj_) WorkerScratch::for_thread().give_object(std::move(obj_));
}

}  // namespace sqs
