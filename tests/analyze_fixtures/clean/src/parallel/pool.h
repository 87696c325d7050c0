// Fixture: the worker-pool surface mirrored from src/parallel/task_pool.h.
#ifndef FIX_PARALLEL_POOL_H_
#define FIX_PARALLEL_POOL_H_

#include <cstdint>
#include <functional>

#include "match/match.h"

namespace fix {

class TaskPool {
 public:
  explicit TaskPool(uint32_t threads);

  uint32_t size() const { return size_; }

  void Submit(std::function<void()> task);

 private:
  void WorkerLoop() noexcept;

  static void InvokeTask(const std::function<void()>& task) noexcept;

  std::function<void()> next_;
  uint32_t size_ = 1;
};

void ForkJoin(TaskPool& pool, uint32_t n,
              const std::function<void(uint32_t)>& body);

}  // namespace fix

#endif  // FIX_PARALLEL_POOL_H_
