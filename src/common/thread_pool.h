// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// A reusable fixed-size thread pool with structured fork-join groups.
//
// Spawning std::async tasks per call paid a thread create/join cycle for
// every parallel step. The pool's workers are created once (see
// ThreadPool::Shared), and every parallel path submits into the same queue:
// the Iterative Fair KD-tree's per-level SplitAllRegions, the
// multi-objective per-task fits, the logistic Newton pass, the aggregate
// integrate kernels, the sharded store's seal folds and the scenario
// runner's sweep points. Tree builds and Partition::FromRects are serial.
//
// Deadlock safety ("work-stealing-lite"): TaskGroup::Wait does not merely
// block — while its own tasks are still queued it pops and executes them
// itself (own-group only, so a fine-grained wait never inlines unrelated
// coarse work ahead of it in the queue). A task that itself spawns a
// nested group and waits therefore always makes progress, even on a pool
// with zero workers (where each waiter executes its own group inline).
// Tasks must not throw.

#ifndef FAIRIDX_COMMON_THREAD_POOL_H_
#define FAIRIDX_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fairidx {

class ThreadPool {
 public:
  /// Creates a pool with `num_workers` background threads. 0 is valid: all
  /// tasks then run on the threads that call TaskGroup::Wait.
  explicit ThreadPool(int num_workers);

  /// Joins the workers. Outstanding tasks are drained first; destroying a
  /// pool while a TaskGroup on it is still alive is a caller bug.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// The process-wide shared pool, created on first use with
  /// hardware_concurrency - 1 workers (so pool workers plus the submitting
  /// thread saturate the machine). Never destroyed: it must outlive every
  /// static-destruction-order hazard, and worker threads park on a condvar
  /// when idle.
  static ThreadPool& Shared();

  /// A set of tasks whose completion can be awaited together. Groups are
  /// cheap; create one per fork-join region.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
    /// Waits for any still-outstanding tasks.
    ~TaskGroup() { Wait(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Enqueues `fn` for execution by a worker (or a waiting thread).
    void Spawn(std::function<void()> fn);

    /// Blocks until every task spawned on this group has finished,
    /// executing this group's still-queued tasks while it waits.
    void Wait();

   private:
    friend class ThreadPool;
    ThreadPool* pool_;
    int pending_ = 0;  // Guarded by pool_->mutex_.
  };

  /// Runs fn(i) for every i in [0, n), using at most `max_parallelism`
  /// concurrent executions (the calling thread counts as one). Blocks until
  /// all iterations finish. max_parallelism <= 1 or n < 2 runs inline, with
  /// no pool traffic.
  void ParallelFor(size_t n, int max_parallelism,
                   const std::function<void(size_t)>& fn);

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  void WorkerLoop();
  /// Pops one task (caller holds the lock), runs it unlocked, re-locks and
  /// signals completion.
  void RunOneLocked(std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable work_cv_;  // Signalled on enqueue and shutdown.
  std::condition_variable done_cv_;  // Signalled when a group hits zero.
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace fairidx

#endif  // FAIRIDX_COMMON_THREAD_POOL_H_
