#include "parallel/thread_pool.h"

#include <exception>

#include "common/expect.h"

namespace saath::parallel {

ThreadPool::ThreadPool(int workers) {
  SAATH_EXPECTS(workers >= 1);
  threads_.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 0; w < workers - 1; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  job_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::drain_job() {
  for (;;) {
    const int shard = next_shard_.fetch_add(1, std::memory_order_relaxed);
    if (shard >= job_shards_) break;
    try {
      (*job_fn_)(shard);
    } catch (...) {
      errors_[static_cast<std::size_t>(shard)] = std::current_exception();
    }
    if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job_shards_) {
      // The caller may already be waiting; the lock pairs the notify with
      // its predicate check so the wakeup cannot be lost.
      std::lock_guard lock(mutex_);
      job_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    job_ready_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    seen = generation_;
    // Counted under the lock: a publisher that reads draining_ == 0 while
    // holding it knows no worker can touch job state until it unlocks.
    ++draining_;
    lock.unlock();
    drain_job();
    lock.lock();
    if (--draining_ == 0) job_done_.notify_all();
  }
}

void ThreadPool::parallel_for_shards(int shards,
                                     const std::function<void(int)>& fn) {
  SAATH_EXPECTS(shards >= 0);
  SAATH_EXPECTS(fn != nullptr);
  if (shards == 0) return;
  SAATH_EXPECTS(!in_flight_);  // no nesting: one barrier at a time

  in_flight_ = true;
  {
    // A worker from the previous job may still be mid-claim (one failed
    // fetch_add past its barrier), and publishing new job state under it
    // would be a race, so wait until no worker is inside drain_job().
    // Workers join draining_ under this mutex before entering it, and the
    // mutex stays held from that check through the publish, so every
    // job-state read in drain_job() happens-after the publish.
    std::unique_lock lock(mutex_);
    job_done_.wait(lock, [&] { return draining_ == 0; });
    errors_.assign(static_cast<std::size_t>(shards), nullptr);
    job_fn_ = &fn;
    job_shards_ = shards;
    next_shard_.store(0, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  job_ready_.notify_all();

  // The calling thread is the pool's last executor.
  drain_job();
  {
    std::unique_lock lock(mutex_);
    job_done_.wait(lock, [&] {
      return completed_.load(std::memory_order_acquire) == job_shards_;
    });
  }
  job_fn_ = nullptr;
  in_flight_ = false;

  for (const std::exception_ptr& error : errors_) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace saath::parallel
