// Resident query server over a local (AF_UNIX) stream socket.
//
// `QueryServer` loads nothing itself: it is handed the data graph once and
// serves any number of queries against it — the whole point of residency is
// paying graph load + index warm-up once instead of per cfl_query run. The
// server owns the graph's evolution from then on: UPDATE requests commit
// mutation batches through a `DynamicGraph` (dyn/dynamic_graph.h), and
// every query runs against the immutable epoch snapshot it takes on
// arrival and holds to the end (snapshot isolation: a query admitted at
// epoch e answers as of e, even if updates commit mid-flight). Per QUERY
// request it:
//
//   1. takes the current epoch snapshot;
//   2. looks the query up in the plan/CPI cache (serve/plan_cache.h);
//      isomorphic queries, under any vertex numbering, share one plan.
//      Updates invalidate exactly the entries whose query labels the batch
//      dirtied — from inside the commit's critical section, so a query can
//      never hit a plan its own epoch staled;
//   3. on a miss, runs CflMatcher::Prepare on the session thread, with a
//      matcher built over the snapshot (every index it reads is derived
//      with the graph; it allocates only the CPI builder's count array), so
//      misses and commits run side by side and no lock is held across a
//      Prepare. The cache refuses a plan whose epoch a commit has since
//      superseded: it is used for its own query but not cached;
//   4. executes through the scheduler (serve/scheduler.h), which owns
//      admission, limit clamping and the from-arrival deadline for both
//      modes: counting queries fan out over the shared worker pool;
//      streaming queries expand on the session thread into a callback that
//      writes each embedding back as an EMB line the moment it is produced,
//      remapped to the client's own vertex numbering when served from a
//      cached isomorphic plan.
//
// Concurrency model: the accept loop runs on the caller of Serve();
// connections are handled as tasks on a session TaskPool (one task per
// connection, requests on a connection are sequential); enumeration shards
// run on the scheduler's separate worker TaskPool. Session tasks block on
// socket reads and latch joins, worker tasks never block on anything —
// keeping the two pools separate is what makes that rule (and so
// deadlock-freedom) hold by construction.
//
// Shutdown: SHUTDOWN on any connection, or RequestShutdown() from any
// thread, wakes the accept loop via a self-pipe; open connections are then
// shut down at the socket layer so parked session tasks observe EOF and
// drain. Serve() returns once the listener is closed; the destructor joins
// both pools.

#ifndef CFL_SERVE_SERVER_H_
#define CFL_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "check/thread_annotations.h"
#include "dyn/dynamic_graph.h"
#include "graph/graph.h"
#include "parallel/task_pool.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"

namespace cfl::serve {

struct ServeOptions {
  std::string socket_path;

  // Enumeration workers (the scheduler's pool).
  uint32_t workers = 4;

  // Concurrent connections; one parked session task each.
  uint32_t sessions = 8;

  // Plan-cache budget; 0 runs the server with caching OFF (the load
  // driver's baseline mode).
  uint64_t cache_bytes = 256ull << 20;

  // Admission-control budgets (see SchedulerOptions).
  uint32_t max_quota = 0;
  uint32_t max_concurrent_queries = 0;
  double max_time_limit_seconds = 30.0;
  uint64_t max_embeddings = 0;

  // No effect: epochs are never compacted. Kept only because perfbench
  // assigns it; a later benchmark change removes both.
  bool background_compaction = true;
};

struct ServerCounters {
  uint64_t queries = 0;        // QUERY requests completed
  uint64_t stream_queries = 0;
  uint64_t errors = 0;         // ERR responses sent
  uint64_t connections = 0;
};

class QueryServer {
 public:
  // The server copies `data` once and owns its evolution (UPDATE batches
  // advance it epoch by epoch); the caller's instance is not read again.
  QueryServer(const Graph& data, const ServeOptions& options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds the socket and serves until shutdown is requested. Blocking.
  // Returns 0 on clean shutdown, -1 if the socket could not be set up (the
  // error text is available via last_error()).
  int Serve();

  // Thread-safe; wakes the accept loop and unblocks parked sessions. Also
  // triggered by a SHUTDOWN request on any connection.
  void RequestShutdown();

  const std::string& last_error() const { return last_error_; }
  const ServeOptions& options() const { return options_; }

 private:
  void HandleConnection(int fd);
  // Reads graph lines up to END, answers the query. Returns false if the
  // connection should close.
  bool HandleQuery(int fd, class LineReader& reader,
                   const RequestHeader& header);
  // Reads op lines up to END, commits the batch, answers UPDATED or ERR.
  bool HandleUpdate(int fd, class LineReader& reader);
  bool HandleStats(int fd);

  void RegisterConnection(int fd) CFL_EXCLUDES(conn_mu_);
  void UnregisterConnection(int fd) CFL_EXCLUDES(conn_mu_);
  void ShutdownAllConnections() CFL_EXCLUDES(conn_mu_);

  void CountQuery(bool stream) CFL_EXCLUDES(counter_mu_);
  void CountError() CFL_EXCLUDES(counter_mu_);

  const ServeOptions options_;

  // The data graph's epochs. All query/update state hangs off this; the
  // server never holds a bare `const Graph&` anymore.
  dyn::DynamicGraph dyn_;

  // Taken by UPDATE (and STATS) only, never by a QUERY: acquire -> delta
  // -> Apply runs under it, so a delta is never built on a stale snapshot.
  // Level 20 < DynamicGraph's 22 < PlanCache's 30, because HandleUpdate
  // commits (and invalidates the cache from the commit hook) under it.
  Mutex commit_mu_ CFL_LOCK_LEVEL(20);
  uint64_t updates_ CFL_GUARDED_BY(commit_mu_) = 0;  // batches committed

  PlanCache cache_;
  QueryScheduler scheduler_;

  std::atomic<bool> stop_ CFL_ATOMIC_INTENT(flag){false};
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: RequestShutdown -> accept loop
  std::string last_error_;

  Mutex conn_mu_ CFL_LOCK_LEVEL(60);
  std::set<int> open_fds_ CFL_GUARDED_BY(conn_mu_);

  Mutex counter_mu_ CFL_LOCK_LEVEL(70);
  ServerCounters counters_ CFL_GUARDED_BY(counter_mu_);

  // Last: sessions join before members they use are destroyed.
  std::unique_ptr<TaskPool> session_pool_;
};

}  // namespace cfl::serve

#endif  // CFL_SERVE_SERVER_H_
