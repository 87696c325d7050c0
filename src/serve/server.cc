#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <sstream>
#include <utility>
#include <vector>

#include "check/check.h"
#include "graph/graph_io.h"
#include "match/cfl_match.h"
#include "obs/clock.h"

namespace cfl::serve {

namespace {

using obs::WallTimer;

// Writes the whole buffer; MSG_NOSIGNAL so a vanished client surfaces as
// EPIPE (drop the connection) instead of killing the process.
bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string ErrnoText(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

// Buffered line reads from a connection; one instance per session task, so
// no locking. Forward-declared in server.h.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // A peer that streams bytes with no newline would otherwise grow buf_
  // without bound; past this the connection is dropped as hostile. Large
  // enough for any legitimate graph body line.
  static constexpr size_t kMaxBufferedBytes = 1 << 20;

  // Next '\n'-terminated line (terminator and any '\r' stripped). False on
  // EOF, error, or overflow with no complete buffered line.
  bool ReadLine(std::string* line) {
    while (true) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      if (buf_.size() > kMaxBufferedBytes) return false;
      char chunk[4096];
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

QueryServer::QueryServer(const Graph& data, const ServeOptions& options)
    : options_(options),
      dyn_(data),
      cache_(options.cache_bytes),
      scheduler_(SchedulerOptions{options.workers, options.max_quota,
                                  options.max_concurrent_queries,
                                  options.max_time_limit_seconds,
                                  options.max_embeddings}),
      session_pool_(std::make_unique<TaskPool>(options.sessions)) {}

QueryServer::~QueryServer() {
  RequestShutdown();
  ShutdownAllConnections();
  session_pool_.reset();
  if (listen_fd_ >= 0) close(listen_fd_);
  for (int fd : wake_pipe_) {
    if (fd >= 0) close(fd);
  }
}

void QueryServer::RequestShutdown() {
  if (stop_.exchange(true, std::memory_order_relaxed)) return;
  if (wake_pipe_[1] >= 0) {
    char byte = 1;
    ssize_t rc = write(wake_pipe_[1], &byte, 1);
    (void)rc;  // the poll loop also rechecks stop_; a full pipe is fine
  }
}

void QueryServer::RegisterConnection(int fd) {
  MutexLock lock(conn_mu_);
  open_fds_.insert(fd);
}

void QueryServer::UnregisterConnection(int fd) {
  MutexLock lock(conn_mu_);
  open_fds_.erase(fd);
}

void QueryServer::ShutdownAllConnections() {
  MutexLock lock(conn_mu_);
  // Socket-layer shutdown only: parked session reads observe EOF and each
  // session closes its own fd on the way out.
  for (int fd : open_fds_) shutdown(fd, SHUT_RDWR);
}

void QueryServer::CountQuery(bool stream) {
  MutexLock lock(counter_mu_);
  ++counters_.queries;
  if (stream) ++counters_.stream_queries;
}

void QueryServer::CountError() {
  MutexLock lock(counter_mu_);
  ++counters_.errors;
}

int QueryServer::Serve() {
  CFL_CHECK(session_pool_ != nullptr) << " — Serve is single-shot";
  listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    last_error_ = ErrnoText("socket");
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    last_error_ = "socket path empty or longer than sun_path";
    return -1;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  unlink(options_.socket_path.c_str());  // stale socket from a crashed run
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    last_error_ = ErrnoText("bind");
    return -1;
  }
  if (listen(listen_fd_, 64) < 0) {
    last_error_ = ErrnoText("listen");
    return -1;
  }
  if (pipe(wake_pipe_) < 0) {
    last_error_ = ErrnoText("pipe");
    return -1;
  }

  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int ready = poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      last_error_ = ErrnoText("poll");
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // RequestShutdown woke us
    if ((fds[0].revents & POLLIN) != 0) {
      int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      {
        MutexLock lock(counter_mu_);
        ++counters_.connections;
      }
      session_pool_->Submit([this, fd] { HandleConnection(fd); });
    }
  }

  close(listen_fd_);
  listen_fd_ = -1;
  unlink(options_.socket_path.c_str());
  // Unblock parked sessions, then drain and join them so a clean Serve()
  // return means no request is still in flight.
  ShutdownAllConnections();
  session_pool_.reset();
  return 0;
}

void QueryServer::HandleConnection(int fd) {
  RegisterConnection(fd);
  LineReader reader(fd);
  std::string line;
  while (!stop_.load(std::memory_order_relaxed) && reader.ReadLine(&line)) {
    if (line.empty()) continue;
    std::string parse_error;
    std::optional<RequestHeader> header =
        ParseRequestHeader(line, &parse_error);
    if (!header.has_value()) {
      CountError();
      if (!WriteAll(fd, "ERR " + parse_error + "\n")) break;
      continue;
    }
    bool keep = true;
    switch (header->kind) {
      case RequestKind::kPing:
        keep = WriteAll(fd, "PONG\n");
        break;
      case RequestKind::kStats:
        keep = HandleStats(fd);
        break;
      case RequestKind::kShutdown:
        WriteAll(fd, "BYE\n");
        RequestShutdown();
        keep = false;
        break;
      case RequestKind::kQuery:
        // Session tasks run on a TaskPool, whose boundary fails fast on
        // escaped exceptions — convert anything a request can throw (parse
        // errors throw std::runtime_error, allocation can throw) into an
        // ERR reply on this connection instead.
        try {
          keep = HandleQuery(fd, reader, *header);
        } catch (const std::exception& e) {
          CountError();
          keep = WriteAll(fd, std::string("ERR internal: ") + e.what() + "\n");
        }
        break;
      case RequestKind::kUpdate:
        try {
          keep = HandleUpdate(fd, reader);
        } catch (const std::exception& e) {
          CountError();
          keep = WriteAll(fd, std::string("ERR internal: ") + e.what() + "\n");
        }
        break;
    }
    if (!keep) break;
  }
  UnregisterConnection(fd);
  close(fd);
}

bool QueryServer::HandleQuery(int fd, LineReader& reader,
                              const RequestHeader& header) {
  // Collect the graph body (everything up to END) before parsing, so a
  // malformed graph still leaves the connection aligned on request
  // boundaries.
  std::string body;
  std::string line;
  bool saw_end = false;
  while (reader.ReadLine(&line)) {
    if (line == "END") {
      saw_end = true;
      break;
    }
    body += line;
    body += '\n';
  }
  if (!saw_end) return false;  // client vanished mid-request

  Graph query;
  try {
    std::istringstream in(body);
    query = ReadGraph(in);
  } catch (const std::exception& e) {
    CountError();
    return WriteAll(fd, std::string("ERR bad query graph: ") + e.what() +
                            "\n");
  }

  // Take the snapshot first: everything below — cache lookup, prepare,
  // enumeration — answers as of this snapshot, no matter how many updates
  // commit while the query runs.
  dyn::Snapshot snapshot = dyn_.Acquire();
  const Graph& data = snapshot.graph();

  WallTimer total_timer;
  QueryOutcome outcome;
  outcome.cache = cache_.enabled() ? QueryOutcome::Cache::kMiss
                                   : QueryOutcome::Cache::kOff;

  std::shared_ptr<const PreparedQuery> plan;
  std::shared_ptr<const Graph> plan_graph;  // graph in the plan's numbering
  std::vector<VertexId> remap;  // client vertex -> plan vertex; empty = id
  PlanCache::Hit hit = cache_.Find(query);
  // A hit is usable only if the plan's epoch is not newer than ours: a plan
  // inserted for epoch e+1 may depend on a batch this query (pinned at e)
  // must not see. Surviving entries from epochs <= ours are proven valid by
  // the invalidation invariant.
  if (hit.plan != nullptr && hit.epoch <= snapshot.epoch()) {
    outcome.cache = QueryOutcome::Cache::kHit;
    plan = std::move(hit.plan);
    plan_graph = std::move(hit.representative);
    remap = std::move(hit.remap);
  } else {
    // Prepare on this session thread with a matcher over the snapshot (it
    // costs one |V|-sized count array), under no lock. Insert leaves the
    // plan uncached if a batch committed since the snapshot (plan_cache.h);
    // it is still correct for this query, by snapshot isolation. The parsed
    // query moves into the one shared graph the cache entry and this
    // request's enumeration both hold.
    plan_graph = std::make_shared<const Graph>(std::move(query));
    WallTimer prepare_timer;
    plan = cache_.Insert(plan_graph, CflMatcher(data).Prepare(*plan_graph),
                         snapshot.epoch());
    outcome.prepare_ms = prepare_timer.Lap() * 1e3;
  }

  // Streams write each embedding as soon as it is produced, on this
  // session thread, remapped to the client's own vertex numbering when
  // served from a cached isomorphic plan. A failed write stops the run and
  // drops the connection.
  EmbeddingCallback on_embedding;
  bool write_failed = false;
  Embedding remapped;
  if (header.mode == QueryMode::kStream) {
    on_embedding = [&](const Embedding& embedding) {
      const Embedding* to_send = &embedding;
      if (!remap.empty()) {
        // embedding[] is indexed by *representative* vertices.
        remapped.resize(embedding.size());
        for (VertexId u = 0; u < remapped.size(); ++u) {
          remapped[u] = embedding[remap[u]];
        }
        to_send = &remapped;
      }
      write_failed = !WriteAll(fd, FormatEmbeddingLine(*to_send) + "\n");
      return !write_failed;
    };
  }
  WallTimer enum_timer;
  const MatchResult result =
      scheduler_.Execute(data, *plan_graph, *plan, header.limits,
                         &outcome.quota, on_embedding);
  if (write_failed) return false;  // client vanished mid-stream
  outcome.enum_ms = enum_timer.Lap() * 1e3;
  outcome.embeddings = result.embeddings;
  outcome.reached_limit = result.reached_limit;
  outcome.timed_out = result.timed_out;

  outcome.total_ms = total_timer.Lap() * 1e3;
  CountQuery(header.mode == QueryMode::kStream);
  return WriteAll(fd, FormatResultLine(outcome) + "\n");
}

bool QueryServer::HandleUpdate(int fd, LineReader& reader) {
  // Collect op lines up to END before parsing, so a malformed op still
  // leaves the connection aligned on request boundaries.
  std::vector<std::string> op_lines;
  std::string line;
  bool saw_end = false;
  while (reader.ReadLine(&line)) {
    if (line == "END") {
      saw_end = true;
      break;
    }
    if (!line.empty()) op_lines.push_back(line);
  }
  if (!saw_end) return false;  // client vanished mid-request

  std::vector<UpdateOp> ops;
  ops.reserve(op_lines.size());
  for (const std::string& op_line : op_lines) {
    std::string parse_error;
    std::optional<UpdateOp> op = ParseUpdateOp(op_line, &parse_error);
    if (!op.has_value()) {
      CountError();
      return WriteAll(fd, "ERR " + parse_error + "\n");
    }
    ops.push_back(*op);
  }

  // The snapshot, the delta and the commit all run under commit_mu_, so
  // no other commit can land between Acquire and Apply and the delta is
  // never stale; building it is O(ops), and the fold inside Apply holds no
  // lock a query takes. The on_commit hook invalidates affected plans and
  // records the epoch before the new epoch is visible to any Acquire.
  // `base` is declared out here because it is often the superseded graph's
  // last owner: freeing that graph is O(|V|) and belongs after the lock
  // and the reply, not inside them.
  std::optional<dyn::Snapshot> base;
  dyn::ApplyResult result;
  uint64_t invalidated = 0;
  std::optional<std::string> rejected;
  {
    MutexLock lock(commit_mu_);
    base = dyn_.Acquire();
    dyn::GraphDelta delta = dyn_.NewDelta(*base);
    for (const UpdateOp& op : ops) {
      bool ok = true;
      switch (op.kind) {
        case UpdateOp::Kind::kAddVertex:
          ok = delta.AddVertex(static_cast<Label>(op.u));
          break;
        case UpdateOp::Kind::kRemoveVertex:
          ok = delta.RemoveVertex(op.u);
          break;
        case UpdateOp::Kind::kAddEdge:
          ok = delta.AddEdge(op.u, op.v);
          break;
        case UpdateOp::Kind::kRemoveEdge:
          ok = delta.RemoveEdge(op.u, op.v);
          break;
      }
      if (!ok) {
        rejected = delta.error();
        break;
      }
    }
    if (!rejected.has_value()) {
      [[maybe_unused]] std::optional<std::string> stale =
          dyn_.Apply(std::move(delta), &result,
                     [&](dyn::Epoch epoch, const dyn::DirtyLabels& dirty) {
                       invalidated = cache_.InvalidateLabels(dirty, epoch);
                     });
      CFL_DCHECK(!stale.has_value()) << " " << *stale;
      ++updates_;
    }
  }
  if (rejected.has_value()) {
    // Whole-batch rejection: nothing of a bad batch is applied.
    CountError();
    return WriteAll(fd, "ERR update rejected: " + *rejected + "\n");
  }

  UpdateOutcome outcome;
  outcome.epoch = result.epoch;
  outcome.added_vertices = result.added_vertices;
  outcome.removed_vertices = result.removed_vertices;
  outcome.added_edges = result.added_edges;
  outcome.removed_edges = result.removed_edges;
  outcome.dirty_labels = static_cast<uint32_t>(result.dirty.labels.size());
  outcome.invalidated = invalidated;
  outcome.retained = cache_.Stats().entries;
  return WriteAll(fd, FormatUpdatedLine(outcome) + "\n");
}

bool QueryServer::HandleStats(int fd) {
  ServerCounters counters;
  {
    MutexLock lock(counter_mu_);
    counters = counters_;
  }
  uint64_t updates = 0;
  dyn::Epoch epoch = 0;
  {
    // Read together with the epoch, so both count the same commits.
    MutexLock lock(commit_mu_);
    updates = updates_;
    epoch = dyn_.CurrentEpoch();
  }
  PlanCacheStats cache = cache_.Stats();
  std::string line = "STATS";
  line += " queries=" + std::to_string(counters.queries);
  line += " stream_queries=" + std::to_string(counters.stream_queries);
  line += " updates=" + std::to_string(updates);
  line += " errors=" + std::to_string(counters.errors);
  line += " connections=" + std::to_string(counters.connections);
  line += " cache_hits=" + std::to_string(cache.hits);
  line += " cache_misses=" + std::to_string(cache.misses);
  line += " cache_evictions=" + std::to_string(cache.evictions);
  line += " cache_collisions=" + std::to_string(cache.collisions);
  line += " cache_invalidations=" + std::to_string(cache.invalidations);
  line += " cache_bytes=" + std::to_string(cache.bytes);
  line += " cache_entries=" + std::to_string(cache.entries);
  line += " epoch=" + std::to_string(epoch);
  line += " active=" + std::to_string(scheduler_.ActiveQueries());
  line += " workers=" + std::to_string(scheduler_.workers());
  line += "\n";
  return WriteAll(fd, line);
}

}  // namespace cfl::serve
