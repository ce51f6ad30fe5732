// Fixed-size worker pool for campaign parallelism.
//
// The campaign drivers (saath_sim --jobs, run_schedulers, run_campaign)
// fan independent runs out through one primitive: parallel_for_shards(n,
// fn) runs fn(0..n-1) across the pool and the calling thread, and returns
// only when every shard finished (a barrier). Shard claiming is dynamic
// (an atomic cursor), so n may exceed the worker count — campaign cells
// queue up and drain as workers free.
//
// Determinism contract: the pool never imposes an order on results.
// Callers write each shard's result into its own slot and read them after
// the barrier in shard order, which keeps campaign output byte-identical
// to a serial run regardless of worker interleaving.
//
// Exceptions thrown inside a shard are captured; after the barrier the
// lowest-indexed shard's exception is rethrown in the caller and the pool
// stays usable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace saath::parallel {

class ThreadPool {
 public:
  /// A pool of `workers` total executors: `workers - 1` threads are
  /// spawned and the thread calling parallel_for_shards participates as
  /// the last executor, so ThreadPool(1) is serial with zero threads.
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(shard) for every shard in [0, shards), distributing shards
  /// dynamically over the pool plus the calling thread, and returns after
  /// all of them completed (barrier). Reentrant calls (fn itself calling
  /// parallel_for_shards on the same pool) are not allowed. If any shard
  /// threw, the lowest-indexed shard's exception is rethrown here after
  /// the barrier; the remaining shards still ran and the pool is reusable.
  void parallel_for_shards(int shards, const std::function<void(int)>& fn);

 private:
  void worker_loop();
  /// Claims and runs shards of the current job until none remain.
  void drain_job();

  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  /// Bumped (under mutex_) when a new job is published; workers wait on it.
  std::uint64_t generation_ = 0;
  bool stopping_ = false;

  // --- state of the in-flight job (valid between publish and barrier) ----
  const std::function<void(int)>* job_fn_ = nullptr;
  int job_shards_ = 0;
  std::atomic<int> next_shard_{0};
  std::atomic<int> completed_{0};
  /// Workers currently inside drain_job(), guarded by mutex_. After a
  /// barrier, a losing worker may still make one failed claim on the
  /// cursor; the next publish waits (on job_done_) for this to reach zero
  /// so job state is never mutated under a stale reader.
  int draining_ = 0;
  /// One captured exception slot per shard of the in-flight job; written
  /// by whichever executor claimed the shard, read by the caller after the
  /// barrier.
  std::vector<std::exception_ptr> errors_;
  bool in_flight_ = false;
};

}  // namespace saath::parallel
