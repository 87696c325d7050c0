// Fixture VIOLATIONS: both worker-noexcept shapes — the pool invoking a
// task directly (outside InvokeTask), and a Submit lambda calling a
// src/parallel function that is neither noexcept nor CFL_POOL_SAFE.
#include <cstdint>
#include <functional>

namespace fix {

class TaskPool {
 public:
  void Submit(std::function<void()> task);

 private:
  static void InvokeTask(const std::function<void()>& task) noexcept;
};

void TaskPool::InvokeTask(const std::function<void()>& task) noexcept {
  task();
}

void TaskPool::Submit(std::function<void()> task) {
  task();
}

uint64_t Helper(uint64_t v) { return v + 1; }

void Drive(TaskPool& pool) {
  pool.Submit([&] { Helper(1); });
}

}  // namespace fix
