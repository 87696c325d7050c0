// The one worker-pool type: every parallel enumeration — the parallel
// matcher's and the server's — runs as tasks on a TaskPool.
//
// Callers Submit independent tasks, N workers drain the FIFO, and nothing
// ever blocks a submitter, so many queries can share the same workers
// without monopolizing them. Fork-join is rebuilt on top: `ForkJoin` fans n
// shard tasks out and blocks on a `TaskLatch` (a countdown) until all have
// returned, while other callers' tasks interleave on the same workers.
//
// Lock discipline: every cross-thread field is CFL_GUARDED_BY the one pool
// mutex, Clang TSA-checked. Task bodies must not throw: InvokeTask is the
// worker boundary and fails fast with the message.
//
// Size 1 still spawns one worker thread: Submit must return immediately
// even when the pool is busy (a server's accept loop cannot run queries
// inline), and the server's worker count must bound its enumeration CPU.

#ifndef CFL_PARALLEL_TASK_POOL_H_
#define CFL_PARALLEL_TASK_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "check/thread_annotations.h"

namespace cfl {

class TaskPool {
 public:
  // `threads` == 0 is clamped to 1.
  explicit TaskPool(uint32_t threads);

  // Stops accepting tasks, drains every task already queued, joins.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  uint32_t size() const { return size_; }

  // Enqueues `task` for execution on some worker. Never blocks on task
  // execution. Must not be called during/after destruction (CFL_CHECK).
  // The task must not throw: a throwing task is caught at the worker
  // boundary and fails fast via CFL_CHECK with the message.
  void Submit(std::function<void()> task) CFL_EXCLUDES(mu_);

 private:
  // noexcept: runs on the worker thread outside the InvokeTask boundary,
  // where an escaped exception is an immediate std::terminate with no
  // context (enforced by cfl_analyze rule worker-noexcept).
  void WorkerLoop() noexcept CFL_EXCLUDES(mu_);

  // The worker boundary: invokes the task and converts any escaped
  // exception into a fail-fast CFL_CHECK carrying the message.
  static void InvokeTask(const std::function<void()>& task) noexcept;

  const uint32_t size_;

  Mutex mu_ CFL_LOCK_LEVEL(50);
  CondVar task_ready_;  // signaled under mu_: new task or shutdown

  std::deque<std::function<void()>> queue_ CFL_GUARDED_BY(mu_);
  bool shutdown_ CFL_GUARDED_BY(mu_) = false;

  std::vector<std::thread> workers_;
};

// Countdown completion latch: a caller that fans k tasks out onto a shared
// TaskPool constructs a TaskLatch(k), each task calls CountDown() as it
// finishes, and the caller Wait()s — the fork-join barrier.
class TaskLatch {
 public:
  explicit TaskLatch(uint32_t count) : remaining_(count) {}

  TaskLatch(const TaskLatch&) = delete;
  TaskLatch& operator=(const TaskLatch&) = delete;

  void CountDown() CFL_EXCLUDES(mu_);

  // Blocks until CountDown has been called `count` times.
  void Wait() CFL_EXCLUDES(mu_);

 private:
  Mutex mu_ CFL_LOCK_LEVEL(80);
  CondVar done_;  // signaled under mu_ when remaining_ hits zero
  uint32_t remaining_ CFL_GUARDED_BY(mu_);
};

// Runs body(i) for every i in [0, n) as n tasks on `pool` and returns once
// all have returned. Never call it from a task on the same pool: with every
// worker blocked in ForkJoin, nothing would run the forked tasks.
void ForkJoin(TaskPool& pool, uint32_t n,
              const std::function<void(uint32_t)>& body);

}  // namespace cfl

#endif  // CFL_PARALLEL_TASK_POOL_H_
