// Fixed-size thread pool for the parallel analysis engine (DESIGN.md §10).
//
// Deliberately work-stealing-free: a batch is an index range [0, count)
// drained through one shared atomic cursor, so the only scheduling decision
// is "who grabs the next index". That is enough for the pipeline's fan-out
// (independent cycles, independent runs, indexed v3 blocks) and keeps the pool small enough to
// reason about under TSan.
//
// Semantics of parallel_for_each:
//   * every index in [0, count) is invoked exactly once;
//   * the call blocks until all invocations have finished — the calling
//     thread participates as a worker, so a pool of `jobs` threads means
//     `jobs - 1` background workers and `jobs(1)` degenerates to a plain
//     serial loop with no threads at all;
//   * exceptions thrown by `fn` are captured per index; after the batch
//     completes, the exception with the *lowest* index is rethrown (the
//     others are dropped). This is deterministic regardless of thread
//     interleaving. The serial path implements the identical contract —
//     every index still runs even when an earlier one threw.
#pragma once

#include <cstddef>
#include <functional>

namespace wolf {

class ThreadPool {
 public:
  // `jobs` is the total parallelism including the calling thread; <= 0 means
  // hardware_jobs().
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int jobs() const { return jobs_; }

  // std::thread::hardware_concurrency(), clamped to at least 1.
  static int hardware_jobs();

  // Invokes fn(0) … fn(count - 1), distributing indices over the pool.
  // Blocks until every invocation has finished; rethrows the lowest-index
  // captured exception, if any.
  void parallel_for_each(std::size_t count,
                         const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  Impl* impl_ = nullptr;  // null when jobs_ == 1 (no worker threads)
  int jobs_ = 1;
};

}  // namespace wolf
