// Concurrent multi-query scheduling over a shared worker pool.
//
// A resident server cannot hand each query a private pool: N concurrent
// queries would oversubscribe the machine N-fold, and a pool per query pays
// thread start/join on every request. Instead one TaskPool
// (parallel/task_pool.h) owns the enumeration workers for the whole
// process, and each admitted query runs the counting driver
// (match/count_driver.h) as a *quota* of shard tasks —
// `max(1, workers / active_queries)` at admission time, so a lone query
// still uses the whole machine while a loaded server degrades to one shard
// per query. The session thread joins through ForkJoin.
//
// Admission control enforces the server's budgets before any work starts
// (the time limit counts from arrival, so it covers the admission wait):
//   - at most `max_concurrent_queries` queries execute at once; later
//     arrivals block (backpressure to the socket, not a thread per query);
//   - requested time limits are clamped to `max_time_limit_seconds`, and
//     "unlimited" requests are *given* that ceiling — a resident process
//     never runs an unbounded query;
//   - requested embedding caps are clamped to `max_embeddings`.
//
// Execute() runs both query modes under that one policy. Counting queries
// fork onto the pool; streaming queries (an on_embedding callback) expand
// on the caller's session thread through the same driver, because the
// callback may block on a socket and pool workers must never block — but
// they still hold an admission slot, so streams count against the same
// concurrency budget, and their deadline counts from arrival too.

#ifndef CFL_SERVE_SCHEDULER_H_
#define CFL_SERVE_SCHEDULER_H_

#include <cstdint>

#include "check/thread_annotations.h"
#include "graph/graph.h"
#include "match/cfl_match.h"
#include "parallel/task_pool.h"

namespace cfl::serve {

struct SchedulerOptions {
  uint32_t workers = 4;

  // Hard per-query shard ceiling; 0 means `workers`.
  uint32_t max_quota = 0;

  // Queries admitted at once; 0 means `2 * workers`.
  uint32_t max_concurrent_queries = 0;

  // Per-query wall-clock ceiling, also substituted for "unlimited"
  // requests; 0 disables the clamp (accepts unlimited queries — only
  // sensible in tests).
  double max_time_limit_seconds = 0.0;

  // Per-query embedding-count ceiling; 0 disables the clamp.
  uint64_t max_embeddings = 0;
};

class QueryScheduler;

// RAII concurrency slot: the constructor blocks until the scheduler is
// below max_concurrent_queries, the destructor frees the slot and wakes one
// waiter. quota() is the worker quota granted at admission.
class AdmissionTicket {
 public:
  explicit AdmissionTicket(QueryScheduler& scheduler);
  ~AdmissionTicket();

  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  uint32_t quota() const { return quota_; }

 private:
  QueryScheduler& scheduler_;
  uint32_t quota_;
};

class QueryScheduler {
 public:
  explicit QueryScheduler(const SchedulerOptions& options);

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  uint32_t workers() const { return pool_.size(); }

  // The admission-control clamp alone (no execution): what Execute will
  // actually run `requested` as.
  MatchLimits ClampLimits(const MatchLimits& requested) const;

  // Execution of `prepared` against `data` under admission control:
  // counting, or with `on_embedding` set, expansion into the callback on
  // the calling thread (match/count_driver.h's EnumerateMatches; the run
  // stops when the callback returns false). The scheduler holds no graph
  // of its own: with dynamic data graphs (dyn/dynamic_graph.h) every query
  // runs against the epoch snapshot it pinned, so the caller passes the
  // snapshot's graph — which must be the instance `prepared`'s CPI
  // candidates refer to. `query` must be the graph `prepared` was built
  // from (the cache representative on a hit). Blocks until the query
  // completes; concurrent callers interleave on the shared workers.
  // `quota_used` (optional) reports the granted pool quota (0 for a
  // stream, which uses no pool worker). The result carries the same
  // MatchStats as CflMatcher::Match; total_seconds is the plan's build +
  // order time plus the wall time of this call, admission wait included.
  MatchResult Execute(const Graph& data, const Graph& query,
                      const PreparedQuery& prepared,
                      const MatchLimits& requested,
                      uint32_t* quota_used = nullptr,
                      const EmbeddingCallback& on_embedding = {});

  // Queries currently admitted (advisory, for STATS reporting).
  uint32_t ActiveQueries() CFL_EXCLUDES(mu_);

 private:
  friend class AdmissionTicket;

  // Blocks until a slot is free; returns the granted quota.
  uint32_t AcquireSlot() CFL_EXCLUDES(mu_);
  void ReleaseSlot() CFL_EXCLUDES(mu_);

  const SchedulerOptions options_;
  const uint32_t max_concurrent_;
  TaskPool pool_;

  Mutex mu_ CFL_LOCK_LEVEL(40);
  CondVar slot_free_;  // signaled under mu_ when active_ drops
  uint32_t active_ CFL_GUARDED_BY(mu_) = 0;
};

}  // namespace cfl::serve

#endif  // CFL_SERVE_SCHEDULER_H_
