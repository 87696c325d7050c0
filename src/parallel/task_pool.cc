#include "parallel/task_pool.h"

#include <exception>
#include <utility>

#include "check/check.h"

namespace cfl {

TaskPool::TaskPool(uint32_t threads) : size_(threads == 0 ? 1 : threads) {
  workers_.reserve(size_);
  for (uint32_t id = 0; id < size_; ++id) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  task_ready_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::InvokeTask(const std::function<void()>& task) noexcept {
  // Fail fast with the message instead of letting the exception escape the
  // worker thread (std::terminate with no context) or skip the task's
  // latch CountDown and strand its ForkJoin caller.
  try {
    task();
  } catch (const std::exception& e) {
    CFL_CHECK(false) << " — TaskPool task threw: " << e.what();
  } catch (...) {
    CFL_CHECK(false) << " — TaskPool task threw a non-std::exception";
  }
}

void TaskPool::Submit(std::function<void()> task) {
  CFL_CHECK(task != nullptr);
  {
    MutexLock lock(mu_);
    CFL_CHECK(!shutdown_) << " — Submit after TaskPool shutdown";
    queue_.push_back(std::move(task));
  }
  task_ready_.NotifyOne();
}

void TaskPool::WorkerLoop() noexcept {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // cfl-analyze: allow(blocking-under-lock) idle wait releases mu_
      while (queue_.empty() && !shutdown_) task_ready_.Wait(mu_);
      // Drain-on-shutdown: exit only once the queue is empty, so every
      // submitted task runs and latch waiters cannot be stranded.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    InvokeTask(task);
  }
}

void TaskLatch::CountDown() {
  // The broadcast stays under mu_ on purpose: a Wait-er must reacquire mu_
  // before it can return and destroy the latch, so holding the lock across
  // NotifyAll is what makes destroy-after-Wait safe.
  MutexLock lock(mu_);
  CFL_CHECK(remaining_ > 0) << " — TaskLatch counted below zero";
  if (--remaining_ == 0) done_.NotifyAll();
}

void TaskLatch::Wait() {
  MutexLock lock(mu_);
  // cfl-analyze: allow(blocking-under-lock) latch barrier: Wait releases mu_
  while (remaining_ != 0) done_.Wait(mu_);
}

void ForkJoin(TaskPool& pool, uint32_t n,
              const std::function<void(uint32_t)>& body) {
  TaskLatch latch(n);
  for (uint32_t i = 0; i < n; ++i) {
    pool.Submit([&body, &latch, i] {
      body(i);
      latch.CountDown();
    });
  }
  latch.Wait();
}

}  // namespace cfl
