#include "parallel/thread_pool.h"

#include <exception>
#include <thread>
#include <utility>

#include "common/expect.h"

namespace saath::parallel {

ThreadPool::ThreadPool(int workers) : workers_(workers) {
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
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      job_ready_.wait(lock,
                      [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      // Must happen under the lock: once this worker is visible past the
      // wait, the caller's drain spin has to see it before publishing the
      // next job's state. An increment after the unlock leaves a window
      // where the caller sees draining_ == 0 while this worker is about
      // to read job state.
      draining_.fetch_add(1, std::memory_order_relaxed);
    }
    drain_job();
    draining_.fetch_sub(1, std::memory_order_release);
  }
}

void ThreadPool::parallel_for_shards(int shards,
                                     const std::function<void(int)>& fn) {
  SAATH_EXPECTS(shards >= 0);
  SAATH_EXPECTS(fn != nullptr);
  if (shards == 0) return;
  SAATH_EXPECTS(!in_flight_);  // no nesting: one barrier at a time
  for (;;) {
    // A worker woken for an earlier job may still be inside drain_job()
    // (one failed claim on the cursor, or the final notify); publishing
    // new job state under it would be a race. Workers enter drain_job()
    // only under mutex_, so draining_ == 0 read under the lock means none
    // is inside and none can enter before the new state is published.
    // The check must not wait while holding the lock: the worker that
    // completes the last shard takes mutex_ to notify.
    while (draining_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    std::lock_guard lock(mutex_);
    if (draining_.load(std::memory_order_acquire) != 0) continue;
    // Job state is published under the mutex: a worker consumes the
    // generation bump under the same mutex, so every job-state read in
    // its drain_job() happens-after this publish.
    errors_.assign(static_cast<std::size_t>(shards), nullptr);
    job_fn_ = &fn;
    job_shards_ = shards;
    next_shard_.store(0, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    ++generation_;
    break;
  }
  in_flight_ = true;
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
