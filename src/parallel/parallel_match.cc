#include "parallel/parallel_match.h"

#include <functional>
#include <string>

#include "match/count_driver.h"
#include "obs/clock.h"

namespace cfl {

ParallelCflMatcher::ParallelCflMatcher(const Graph& data, uint32_t threads)
    : serial_(data),
      threads_(threads == 0 ? 1 : threads),
      pool_(threads_ > 1 ? std::make_unique<TaskPool>(threads_) : nullptr) {}

MatchResult ParallelCflMatcher::Match(const Graph& q,
                                      const MatchOptions& options) {
  // Enumeration mode: the per-embedding callback is a sequential contract.
  if (options.on_embedding || pool_ == nullptr) {
    return serial_.Match(q, options);
  }
  obs::WallTimer total_timer;
  PreparedQuery prepared = serial_.Prepare(q, options);
  MatchResult result = CountMatches(
      serial_.data(), q, prepared, options.limits, threads_,
      [this](uint32_t n, const std::function<void(uint32_t)>& body) {
        ForkJoin(*pool_, n, body);
      });
  result.total_seconds = total_timer.Lap();
  return result;
}

namespace {

class ParallelCflEngine : public SubgraphEngine {
 public:
  ParallelCflEngine(const Graph& data, uint32_t threads)
      : name_("CFL-Match-P" + std::to_string(threads == 0 ? 1 : threads)),
        matcher_(data, threads) {}

  std::string_view name() const override { return name_; }

  MatchResult Run(const Graph& query, const MatchLimits& limits) override {
    MatchOptions options;
    options.limits = limits;
    return matcher_.Match(query, options);
  }

 private:
  std::string name_;
  ParallelCflMatcher matcher_;
};

}  // namespace

std::unique_ptr<SubgraphEngine> MakeParallelCflMatch(const Graph& data,
                                                     uint32_t threads) {
  return std::make_unique<ParallelCflEngine>(data, threads);
}

}  // namespace cfl
