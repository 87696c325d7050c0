#include "serve/scheduler.h"

#include <algorithm>
#include <functional>

#include "check/check.h"
#include "match/count_driver.h"
#include "obs/clock.h"

namespace cfl::serve {

AdmissionTicket::AdmissionTicket(QueryScheduler& scheduler)
    : scheduler_(scheduler), quota_(scheduler.AcquireSlot()) {}

AdmissionTicket::~AdmissionTicket() { scheduler_.ReleaseSlot(); }

QueryScheduler::QueryScheduler(const SchedulerOptions& options)
    : options_(options),
      max_concurrent_(options.max_concurrent_queries != 0
                          ? options.max_concurrent_queries
                          : 2 * (options.workers == 0 ? 1 : options.workers)),
      pool_(options.workers) {}

MatchLimits QueryScheduler::ClampLimits(const MatchLimits& requested) const {
  MatchLimits limits = requested;
  if (options_.max_time_limit_seconds > 0.0 &&
      (limits.time_limit_seconds <= 0.0 ||
       limits.time_limit_seconds > options_.max_time_limit_seconds)) {
    limits.time_limit_seconds = options_.max_time_limit_seconds;
  }
  if (options_.max_embeddings != 0) {
    limits.max_embeddings =
        std::min(limits.max_embeddings, options_.max_embeddings);
  }
  return limits;
}

uint32_t QueryScheduler::AcquireSlot() {
  MutexLock lock(mu_);
  // cfl-analyze: allow(blocking-under-lock) admission backpressure releases mu_
  while (active_ >= max_concurrent_) slot_free_.Wait(mu_);
  ++active_;
  // Quota at admission time: a lone query gets every worker, a loaded
  // server converges to one shard per query. Never zero.
  uint32_t quota = std::max(1u, pool_.size() / active_);
  const uint32_t ceiling =
      options_.max_quota != 0 ? options_.max_quota : pool_.size();
  return std::min(quota, ceiling);
}

void QueryScheduler::ReleaseSlot() {
  {
    MutexLock lock(mu_);
    CFL_CHECK(active_ > 0) << " — slot released twice";
    --active_;
  }
  slot_free_.NotifyOne();
}

uint32_t QueryScheduler::ActiveQueries() {
  MutexLock lock(mu_);
  return active_;
}

MatchResult QueryScheduler::Execute(const Graph& data, const Graph& query,
                                    const PreparedQuery& prepared,
                                    const MatchLimits& requested,
                                    uint32_t* quota_used,
                                    const EmbeddingCallback& on_embedding) {
  // The deadline counts from arrival, so time spent waiting for admission
  // is charged to the request's time limit.
  const obs::TimePoint arrival = obs::Now();
  const MatchLimits limits = ClampLimits(requested);
  AdmissionTicket ticket(*this);
  if (quota_used != nullptr) *quota_used = on_embedding ? 0 : ticket.quota();

  MatchResult result;
  if (on_embedding) {
    // The callback may block on the client's socket: expand on the
    // caller's thread, never on a pool worker.
    result = EnumerateMatches(data, query, prepared, limits, on_embedding,
                              arrival);
  } else {
    // Even a quota-1 query runs on the pool, never on the session thread,
    // so `workers` bounds the server's counting CPU.
    result = CountMatches(
        data, query, prepared, limits, ticket.quota(),
        [this](uint32_t n, const std::function<void(uint32_t)>& body) {
          ForkJoin(pool_, n, body);
        },
        arrival);
  }
  result.total_seconds = result.OrderingSeconds() + obs::SecondsSince(arrival);
  return result;
}

}  // namespace cfl::serve
