#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "util/logging.h"
#include "util/status.h"

namespace gstore::serve {

namespace {

// One NDJSON request line may not exceed this (a malicious or broken client
// must not balloon the handler's buffer); responses are capped by
// kMaxNeighborsReturned on the result side.
constexpr std::size_t kMaxLineBytes = 64ull << 20;

// Upper bound on a client-requested blocking wait: a hostile timeout_ms
// must not pin a handler thread for centuries. Clients needing longer
// simply re-issue the wait.
constexpr std::uint64_t kMaxWaitMs = 10ull * 60 * 1000;

// Job ids are allocated from 1 (server.h: next_id_), so 0 never matches.
std::uint64_t parse_id(const Json& request) {
  return request.at("id").as_u64_in(
      1, std::numeric_limits<std::uint64_t>::max());
}

bool is_terminal(JobState s) noexcept {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

bool send_all(int fd, const char* data, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// ServerStats

Json ServerStats::to_json() const {
  Json j = Json::object();
  j.set("jobs_submitted", Json(jobs_submitted));
  j.set("jobs_rejected", Json(jobs_rejected));
  j.set("jobs_done", Json(jobs_done));
  j.set("jobs_failed", Json(jobs_failed));
  j.set("jobs_cancelled", Json(jobs_cancelled));
  j.set("gangs", Json(gangs));
  j.set("bytes_read", Json(bytes_read));
  j.set("tiles_fetched", Json(tiles_fetched));
  j.set("tiles_from_cache", Json(tiles_from_cache));
  j.set("tile_dispatches", Json(tile_dispatches));
  j.set("edges_processed", Json(edges_processed));
  j.set("edges_ingested", Json(edges_ingested));
  j.set("compactions", Json(compactions));
  // Shared-fetch payoff: kernel deliveries per unique payload materialized.
  // 32 identical BFS jobs push this towards 32; a lone job sits at ~1.
  const std::uint64_t unique = tiles_fetched + tiles_from_cache;
  j.set("dedup_ratio",
        Json(unique == 0 ? 1.0
                         : static_cast<double>(tile_dispatches) /
                               static_cast<double>(unique)));
  return j;
}

// ---------------------------------------------------------------------------
// JobManager

JobManager::JobManager(ingest::EdgeIngestor& ingestor, ManagerOptions options)
    : ingestor_(ingestor),
      options_(std::move(options)),
      snapshots_(ingestor, options_.snapshot_device),
      vertex_count_(ingestor.store().vertex_count()) {
  GS_CHECK_MSG(options_.max_gang >= 1 &&
                   options_.max_gang <= SharedScheduler::kMaxGang,
               "max_gang must be in [1, 64]");
}

JobManager::~JobManager() { stop(/*drain=*/false); }

void JobManager::start() {
  MutexLock lock(mu_);
  GS_CHECK_MSG(!started_, "JobManager already started");
  stop_ = false;
  started_ = true;
  scheduler_thread_ = std::thread(&JobManager::scheduler_main, this);
}

void JobManager::stop(bool drain) {
  {
    MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
    stop_ = true;
    drain_ = drain;
    if (!drain) {
      // Cancel everything queued here (the scheduler may be mid-gang and
      // not reach the queue for a while) and flag the running jobs; the
      // gang observes the flags at its next round boundary.
      for (JobRecord* rec : queue_) {
        rec->state = JobState::kCancelled;
        ++aggregate_.jobs_cancelled;
      }
      queue_.clear();
      for (auto& [id, rec] : jobs_)
        if (rec->state == JobState::kRunning) rec->cancel_flag.store(true);
      done_cv_.notify_all();
    }
    work_cv_.notify_all();
  }
  scheduler_thread_.join();
}

std::uint64_t JobManager::submit(const Json& job) {
  // Parse + allocate everything outside the lock; the guarded region below
  // only links the record in.
  auto rec = std::make_unique<JobRecord>();
  rec->spec = JobSpec::from_json(job, vertex_count_);
  rec->algo = make_algorithm(rec->spec);
  JobRecord* raw = rec.get();

  MutexLock lock(mu_);
  // Submitting before start() is allowed (jobs queue until the scheduler
  // thread exists) — only a stopped manager rejects.
  if (stop_) throw Error("server is shutting down");
  if (queue_.size() >= options_.max_queued) {
    ++aggregate_.jobs_rejected;
    throw Error("server busy: job queue is full (" +
                std::to_string(options_.max_queued) + " jobs queued)");
  }
  const std::uint64_t id = next_id_++;
  raw->id = id;
  // GL-SAFE(GL1): jobs_ is the guarded registry — the map node must be
  // linked in under mu_ or a concurrent status() could miss a submitted id.
  jobs_.emplace(id, std::move(rec));
  // GL-SAFE(GL1): queue_ is the guarded work queue; same rationale.
  queue_.push_back(raw);
  ++aggregate_.jobs_submitted;
  work_cv_.notify_one();
  return id;
}

const JobManager::JobRecord& JobManager::find_locked(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw InvalidArgument("unknown job id " + std::to_string(id));
  return *it->second;
}

Json JobManager::status_locked(const JobRecord& rec) const {
  Json j = Json::object();
  j.set("id", Json(rec.id));
  j.set("state", Json(to_string(rec.state)));
  j.set("job", rec.spec.to_json());
  if (is_terminal(rec.state)) {
    j.set("generation", Json(static_cast<std::uint64_t>(rec.generation)));
    j.set("delta_edges", Json(rec.delta_edges));
    j.set("stats", rec.stats.to_json());
    if (!rec.error.empty()) j.set("error", Json(rec.error));
  } else if (rec.state == JobState::kRunning) {
    j.set("generation", Json(static_cast<std::uint64_t>(rec.generation)));
    j.set("delta_edges", Json(rec.delta_edges));
  }
  return j;
}

Json JobManager::status(std::uint64_t id) const {
  MutexLock lock(mu_);
  return status_locked(find_locked(id));
}

Json JobManager::result(std::uint64_t id) const {
  MutexLock lock(mu_);
  const JobRecord& rec = find_locked(id);
  if (!is_terminal(rec.state))
    throw Error("job " + std::to_string(id) + " is still " +
                to_string(rec.state));
  Json j = Json::object();
  j.set("id", Json(rec.id));
  j.set("state", Json(to_string(rec.state)));
  if (rec.state == JobState::kDone) {
    j.set("result", rec.result_json);
    j.set("stats", rec.stats.to_json());
  } else {
    j.set("error", Json(rec.error));
  }
  return j;
}

bool JobManager::cancel(std::uint64_t id) {
  MutexLock lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw InvalidArgument("unknown job id " + std::to_string(id));
  JobRecord& rec = *it->second;
  if (is_terminal(rec.state)) return false;
  if (rec.state == JobState::kQueued) {
    for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
      if (*qit == &rec) {
        queue_.erase(qit);
        break;
      }
    }
    rec.state = JobState::kCancelled;
    ++aggregate_.jobs_cancelled;
    done_cv_.notify_all();
    return true;
  }
  // Running: the gang honors the flag at its next round boundary and
  // reports kCancelled through the done callback.
  rec.cancel_flag.store(true);
  return true;
}

bool JobManager::wait(std::uint64_t id,
                      std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  for (;;) {
    if (is_terminal(find_locked(id).state)) return true;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    done_cv_.wait_for(mu_, std::chrono::duration_cast<std::chrono::milliseconds>(
                               deadline - now));
  }
}

Json JobManager::stats() const {
  ServerStats agg;
  std::size_t queued = 0;
  std::size_t running = 0;
  {
    MutexLock lock(mu_);
    agg = aggregate_;
    queued = queue_.size();
    for (const auto& [id, rec] : jobs_)
      if (rec->state == JobState::kRunning) ++running;
  }
  Json j = agg.to_json();
  j.set("jobs_queued", Json(static_cast<std::uint64_t>(queued)));
  j.set("jobs_running", Json(static_cast<std::uint64_t>(running)));
  j.set("pinned_generations",
        Json(static_cast<std::uint64_t>(snapshots_.pinned_generations())));
  j.set("retired_pending_unlink",
        Json(static_cast<std::uint64_t>(snapshots_.retired_pending_unlink())));
  return j;
}

Json JobManager::info() const {
  // The ingestor serializes these reads under its own lock; nothing here
  // touches mu_ (no nesting, no ordering obligation).
  const std::uint32_t generation = ingestor_.generation();
  const std::uint64_t delta_edges = ingestor_.delta_edges();
  Json j = Json::object();
  j.set("base", Json(ingestor_.base()));
  j.set("generation", Json(static_cast<std::uint64_t>(generation)));
  j.set("delta_edges", Json(delta_edges));
  j.set("vertex_count", Json(static_cast<std::uint64_t>(vertex_count_)));
  j.set("max_gang", Json(static_cast<std::uint64_t>(options_.max_gang)));
  j.set("max_queued", Json(static_cast<std::uint64_t>(options_.max_queued)));
  return j;
}

std::uint64_t JobManager::ingest(std::span<const graph::Edge> edges) {
  const std::uint64_t accepted = ingestor_.ingest(edges);
  MutexLock lock(mu_);
  aggregate_.edges_ingested += accepted;
  return accepted;
}

Json JobManager::compact() {
  const ingest::CompactStats cs = snapshots_.compact();
  {
    MutexLock lock(mu_);
    ++aggregate_.compactions;
  }
  Json j = Json::object();
  j.set("old_generation", Json(static_cast<std::uint64_t>(cs.old_generation)));
  j.set("new_generation", Json(static_cast<std::uint64_t>(cs.new_generation)));
  j.set("base_edges", Json(cs.base_edges));
  j.set("wal_edges", Json(cs.wal_edges));
  j.set("merged_edges", Json(cs.merged_edges));
  j.set("bytes_written", Json(cs.bytes_written));
  j.set("seconds", Json(cs.seconds));
  j.set("retired_pending_unlink",
        Json(static_cast<std::uint64_t>(snapshots_.retired_pending_unlink())));
  return j;
}

void JobManager::scheduler_main() {
  for (;;) {
    // Pop the next gang's seed jobs. A fixed-size buffer keeps the guarded
    // region allocation-free; the vector is built after unlock.
    std::array<JobRecord*, SharedScheduler::kMaxGang> popped{};
    std::size_t npopped = 0;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !stop_) work_cv_.wait(mu_);
      if (queue_.empty()) return;  // stop requested, nothing left to drain
      while (!queue_.empty() && npopped < options_.max_gang) {
        JobRecord* rec = queue_.front();
        queue_.pop_front();
        rec->state = JobState::kRunning;
        popped[npopped++] = rec;
      }
    }
    std::vector<JobRecord*> batch(popped.begin(), popped.begin() + npopped);
    run_gang(std::move(batch));
  }
}

void JobManager::run_gang(std::vector<JobRecord*> batch) {
  SnapshotRef snap;
  try {
    snap = snapshots_.acquire();
  } catch (const std::exception& e) {
    GS_LOG(Warn) << "gang snapshot acquisition failed: " << e.what();
    MutexLock lock(mu_);
    for (JobRecord* rec : batch) {
      rec->state = JobState::kFailed;
      rec->error = e.what();
      ++aggregate_.jobs_failed;
    }
    done_cv_.notify_all();
    return;
  }

  {
    MutexLock lock(mu_);
    for (JobRecord* rec : batch) {
      rec->generation = snap->generation();
      rec->delta_edges = snap->delta_edges();
    }
  }

  std::vector<GangJob> initial;
  initial.reserve(batch.size());
  for (JobRecord* rec : batch) {
    initial.push_back(GangJob{
        rec->id, rec->algo.get(),
        [rec] { return rec->cancel_flag.load(std::memory_order_relaxed); }});
  }

  // Mid-gang admission: queued jobs join the running gang only while the
  // write path still matches the gang's snapshot — (generation,
  // delta_edges) is exact snapshot identity because the delta is
  // append-only between compactions. Jobs queued after a write wait for
  // the next gang (and its fresh snapshot).
  const auto admit = [&](std::size_t free_slots) -> std::vector<GangJob> {
    std::array<JobRecord*, SharedScheduler::kMaxGang> taken{};
    std::size_t ntaken = 0;
    {
      MutexLock lock(mu_);
      if (!queue_.empty() &&
          ingestor_.generation() == snap->generation() &&
          ingestor_.delta_edges() == snap->delta_edges()) {
        while (!queue_.empty() && ntaken < free_slots) {
          JobRecord* rec = queue_.front();
          queue_.pop_front();
          rec->state = JobState::kRunning;
          rec->generation = snap->generation();
          rec->delta_edges = snap->delta_edges();
          taken[ntaken++] = rec;
        }
      }
    }
    std::vector<GangJob> joined;
    joined.reserve(ntaken);
    for (std::size_t k = 0; k < ntaken; ++k) {
      JobRecord* rec = taken[k];
      joined.push_back(GangJob{
          rec->id, rec->algo.get(),
          [rec] { return rec->cancel_flag.load(std::memory_order_relaxed); }});
    }
    return joined;
  };

  // Kernel deliveries, summed from the jobs' own counters and folded into
  // the aggregate with the gang's tile counters, so dedup_ratio never
  // mixes a finished gang's numerator with a running gang's denominator.
  std::uint64_t dispatches = 0;
  const auto done = [&](const GangJob& job, JobState state,
                        const JobStats& stats, const std::string& error) {
    dispatches += stats.tiles_dispatched;
    JobRecord* rec = nullptr;
    {
      MutexLock lock(mu_);
      rec = jobs_.at(job.id).get();
    }
    // Result digests walk full per-vertex vectors — build outside mu_.
    Json result;
    if (state == JobState::kDone) result = make_result(rec->spec, *rec->algo);
    {
      MutexLock lock(mu_);
      rec->state = state;
      rec->stats = stats;
      rec->error = error;
      if (state == JobState::kDone) {
        rec->result_json = std::move(result);
        ++aggregate_.jobs_done;
      } else if (state == JobState::kFailed) {
        ++aggregate_.jobs_failed;
      } else {
        ++aggregate_.jobs_cancelled;
      }
      aggregate_.edges_processed += stats.edges_processed;
      done_cv_.notify_all();
    }
    // The algorithm's per-vertex state (ranks, depths, …) is dead weight
    // once the result summary exists; a finished PageRank must not keep
    // gigabytes resident while the record waits to be queried.
    rec->algo.reset();
  };

  SharedScheduler scheduler(*snap, options_.scheduler, options_.max_gang);
  const store::EngineStats gs = scheduler.run(std::move(initial), admit, done);

  MutexLock lock(mu_);
  ++aggregate_.gangs;
  aggregate_.bytes_read += gs.bytes_read;
  aggregate_.tiles_fetched += gs.tiles_from_disk;
  aggregate_.tiles_from_cache += gs.tiles_from_cache;
  aggregate_.tile_dispatches += dispatches;
}

// ---------------------------------------------------------------------------
// Server

Server::Server(JobManager& manager, ServeOptions options)
    : manager_(manager), options_(std::move(options)) {}

Server::~Server() { stop(); }

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw IoError("socket", errno);
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw InvalidArgument("bad listen address \"" + options_.host + "\"");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("bind/listen on " + options_.host + ":" +
                      std::to_string(options_.port),
                  err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0)
    port_ = ntohs(bound.sin_port);

  acceptor_ = std::thread(&Server::accept_loop, this);
  GS_LOG(Info) << "gstore_serve listening on " << options_.host << ":"
               << port_;
}

void Server::stop() {
  {
    MutexLock lock(state_mu_);
    if (stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;  // unblock wait_shutdown()
    shutdown_cv_.notify_all();
  }
  // Wake the acceptor (accept() returns once the listen socket is shut
  // down), join it, then tear down connections. Joining the acceptor FIRST
  // guarantees conns_ is complete — it is only ever appended to from there.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Conn>> conns;
  {
    MutexLock lock(conn_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);  // wake blocked recv()
  }
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
    if (c->fd >= 0) ::close(c->fd);
  }
}

bool Server::wait_shutdown() {
  MutexLock lock(state_mu_);
  // Timed wait so a request_stop() from a signal handler (atomic store,
  // no notify) is observed within one tick even though nothing signals
  // the condvar.
  while (!shutdown_requested_) {
    if (async_stop_.load(std::memory_order_acquire)) break;
    shutdown_cv_.wait_for(state_mu_, std::chrono::milliseconds(100));
  }
  return shutdown_drain_;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down — server stopping
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    // The handler thread exists before the list entry does; stop() cannot
    // run concurrently with this push (it joins the acceptor first).
    raw->thread = std::thread(&Server::handle_connection, this, raw);
    // Reap handlers that already returned, so a long-lived daemon does not
    // accumulate dead threads: finished entries are moved out under the
    // lock (swap-remove, allocation-free) and joined/closed after it —
    // blocking in join()/close() must not stall concurrent stop(). The
    // bounded batch just spreads a reap burst over a few accepts. Their
    // fds stay open until the join completes: closing earlier could let
    // the kernel recycle the descriptor into a live connection mid-recv.
    std::array<std::unique_ptr<Conn>, 16> finished;
    std::size_t nfinished = 0;
    {
      MutexLock lock(conn_mu_);
      for (std::size_t i = 0;
           i < conns_.size() && nfinished < finished.size();) {
        if (conns_[i]->done.load(std::memory_order_acquire)) {
          finished[nfinished++] = std::move(conns_[i]);
          conns_[i] = std::move(conns_.back());
          conns_.pop_back();
        } else {
          ++i;
        }
      }
      // GL-SAFE(GL1): conns_ is the guarded registry of live connections;
      // the entry must be linked in under conn_mu_ so stop() can find it.
      conns_.push_back(std::move(conn));
    }
    for (std::size_t i = 0; i < nfinished; ++i) {
      if (finished[i]->thread.joinable()) finished[i]->thread.join();
      if (finished[i]->fd >= 0) ::close(finished[i]->fd);
    }
  }
}

void Server::handle_connection(Conn* conn) {
  std::string buffer;
  char chunk[4096];
  bool alive = true;
  while (alive) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // client closed (or stop() shut the socket down)
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while (alive && (nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.empty() || line == "\r") continue;
      Json response;
      bool stop_after_reply = false;
      try {
        response = dispatch(Json::parse(line), stop_after_reply);
      } catch (const std::exception& e) {
        response = error_response(e.what());
      }
      std::string out = response.dump();
      out += '\n';
      alive = send_all(conn->fd, out.data(), out.size());
      // A shutdown wakes wait_shutdown() only once its reply is sent: the
      // stop() that follows shuts every connection down and would cut an
      // unsent reply off.
      if (stop_after_reply) {
        MutexLock lock(state_mu_);
        shutdown_requested_ = true;
        shutdown_cv_.notify_all();
      }
    }
    if (buffer.size() > kMaxLineBytes) {
      const std::string out =
          error_response("request line exceeds 64 MiB").dump() + "\n";
      send_all(conn->fd, out.data(), out.size());
      break;
    }
  }
  conn->done.store(true, std::memory_order_release);
  // fd is left open: reap_finished_locked / stop() closes it after join.
}

Json Server::dispatch(const Json& request, bool& stop_after_reply) {
  const std::string& op = request.at("op").as_string();
  if (op == "ping") return ok_response();
  if (op == "submit") {
    const std::uint64_t id = manager_.submit(request.at("job"));
    Json r = ok_response();
    r.set("id", Json(id));
    return r;
  }
  if (op == "status") {
    Json r = ok_response();
    r.set("job", manager_.status(parse_id(request)));
    return r;
  }
  if (op == "result") {
    Json r = ok_response();
    r.set("job", manager_.result(parse_id(request)));
    return r;
  }
  if (op == "cancel") {
    Json r = ok_response();
    r.set("cancelled", Json(manager_.cancel(parse_id(request))));
    return r;
  }
  if (op == "wait") {
    std::uint64_t timeout_ms = 60000;
    if (const Json* t = request.find("timeout_ms"))
      timeout_ms = t->as_u64_in(0, kMaxWaitMs);
    const std::uint64_t id = parse_id(request);
    const bool finished =
        manager_.wait(id, std::chrono::milliseconds(timeout_ms));
    Json r = ok_response();
    r.set("done", Json(finished));
    r.set("job", manager_.status(id));
    return r;
  }
  if (op == "stats") {
    Json r = ok_response();
    r.set("stats", manager_.stats());
    return r;
  }
  if (op == "info") {
    Json r = ok_response();
    r.set("info", manager_.info());
    return r;
  }
  if (op == "ingest") {
    const Json& arr = request.at("edges");
    std::vector<graph::Edge> edges;
    edges.reserve(arr.items().size());
    for (const Json& e : arr.items()) {
      if (e.items().size() != 2)
        throw InvalidArgument("each edge must be a [src, dst] pair");
      constexpr std::uint32_t kVidMax =
          std::numeric_limits<graph::vid_t>::max();
      edges.push_back(graph::Edge{e.items()[0].as_u32_in(0, kVidMax),
                                  e.items()[1].as_u32_in(0, kVidMax)});
    }
    Json r = ok_response();
    r.set("accepted", Json(manager_.ingest(edges)));
    return r;
  }
  if (op == "compact") {
    Json r = ok_response();
    r.set("stats", manager_.compact());
    return r;
  }
  if (op == "shutdown") {
    bool drain = true;
    if (const Json* d = request.find("drain")) drain = d->as_bool();
    {
      MutexLock lock(state_mu_);
      shutdown_drain_ = drain;
    }
    stop_after_reply = true;
    return ok_response();
  }
  throw InvalidArgument("unknown op \"" + op + "\"");
}

}  // namespace gstore::serve
