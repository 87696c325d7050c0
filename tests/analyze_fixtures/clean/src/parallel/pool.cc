// Fixture: a clean worker boundary — a task is invoked only inside
// InvokeTask, the out-of-boundary functions are noexcept, and everything a
// Submit or ForkJoin lambda calls is noexcept or CFL_POOL_SAFE. Mutation
// self-test seeds 7 and 8 break these properties.
#include "parallel/pool.h"

#include <utility>

#include "check/check.h"

namespace fix {

namespace {

uint64_t Accumulate(uint64_t a, uint64_t b) noexcept { return a + b; }

uint64_t Allocating(uint64_t n) CFL_POOL_SAFE { return n * 2; }

}  // namespace

void TaskPool::InvokeTask(const std::function<void()>& task) noexcept {
  task();
}

void TaskPool::WorkerLoop() noexcept {
  std::function<void()> task = std::move(next_);
  InvokeTask(task);
}

void TaskPool::Submit(std::function<void()> task) {
  next_ = std::move(task);
  WorkerLoop();
}

void ForkJoin(TaskPool& pool, uint32_t n,
              const std::function<void(uint32_t)>& body) {
  for (uint32_t i = 0; i < n; ++i) pool.Submit([&body, i] { body(i); });
}

void Drive(TaskPool& pool) {
  ForkJoin(pool, 2, [&](uint32_t w) {
    uint64_t total = Accumulate(w, 1);
    total = Allocating(total);
  });
}

}  // namespace fix
