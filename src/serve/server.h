// gstore_serve's two long-lived layers.
//
// JobManager — job lifecycle + the scheduling loop. Jobs are submitted as
// JobSpecs, assigned monotonic ids, queued, and executed by ONE scheduler
// thread that forms gangs: it pins a snapshot, seeds a SharedScheduler with
// every queued job, and keeps admitting newly queued jobs at round
// boundaries while the ingest state still matches the gang's snapshot
// (jobs that arrive after a write form the next gang, against a fresh
// snapshot). Lifecycle: queued → running → done | failed | cancelled;
// status/result/cancel/wait are queryable at any time. Backpressure: past
// max_queued the submit is rejected (the client retries later) instead of
// growing an unbounded queue.
//
// Statistics discipline (satellite): per-run counters are job-scoped
// (JobStats, returned per job) — concurrent jobs never interleave their
// counters. The process-wide ServerStats aggregate is monotonic and only
// ever *added to* from completed jobs/gangs, which is what the daemon's
// `stats` endpoint reports.
//
// Server — the NDJSON-over-TCP front end: an acceptor thread plus one
// handler thread per connection, every thread joined on stop() (no
// detached threads — enforced repo-wide by check_concurrency.py R7).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "graph/types.h"
#include "ingest/ingestor.h"
#include "serve/job.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/snapshot.h"
#include "util/sync.h"

namespace gstore::serve {

// Monotonic process-wide aggregate for the `stats` endpoint. Guarded by
// JobManager::mu_; snapshotted into JSON on request.
struct ServerStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t jobs_done = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t gangs = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t tiles_fetched = 0;
  std::uint64_t tiles_from_cache = 0;
  std::uint64_t tile_dispatches = 0;
  std::uint64_t edges_processed = 0;
  std::uint64_t edges_ingested = 0;
  std::uint64_t compactions = 0;

  Json to_json() const;
};

struct ManagerOptions {
  SchedulerConfig scheduler;
  // Gang width: how many jobs share one fetch stream (≤ 64).
  std::size_t max_gang = 32;
  // Backpressure threshold: submits are rejected while this many jobs are
  // queued (running jobs don't count — they already have their snapshot).
  std::size_t max_queued = 1024;
  // Device config for snapshot stores (fault injection flows through here).
  io::DeviceConfig snapshot_device;
};

class JobManager {
 public:
  // The ingestor must outlive the manager. Call start() before submitting.
  explicit JobManager(ingest::EdgeIngestor& ingestor, ManagerOptions options = {});
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  void start();
  // drain=true: finish every queued and running job first. drain=false:
  // cancel everything still queued or running, then return. Idempotent;
  // joins the scheduler thread either way.
  void stop(bool drain) GSTORE_EXCLUDES(mu_);

  // Returns the new job id. Throws InvalidArgument on a bad spec and Error
  // ("server busy") when the queue is at max_queued.
  std::uint64_t submit(const Json& job) GSTORE_EXCLUDES(mu_);

  Json status(std::uint64_t id) const GSTORE_EXCLUDES(mu_);
  // Terminal-state payload: result object for done jobs, error for
  // failed/cancelled; throws InvalidArgument for unknown ids, Error when
  // the job is still queued/running.
  Json result(std::uint64_t id) const GSTORE_EXCLUDES(mu_);
  // True if the job was still pending/running (its cancellation takes
  // effect at the next round boundary); false if already terminal.
  bool cancel(std::uint64_t id) GSTORE_EXCLUDES(mu_);
  // Blocks until the job reaches a terminal state or the timeout expires.
  bool wait(std::uint64_t id, std::chrono::milliseconds timeout) const
      GSTORE_EXCLUDES(mu_);

  Json stats() const GSTORE_EXCLUDES(mu_);
  Json info() const GSTORE_EXCLUDES(mu_);

  // Write path, proxied so clients reach it over the wire.
  std::uint64_t ingest(std::span<const graph::Edge> edges) GSTORE_EXCLUDES(mu_);
  Json compact() GSTORE_EXCLUDES(mu_);

  SnapshotManager& snapshots() noexcept { return snapshots_; }

 private:
  struct JobRecord {
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::string error;
    JobStats stats;
    Json result_json;
    std::uint32_t generation = 0;
    std::uint64_t delta_edges = 0;
    std::unique_ptr<store::TileAlgorithm> algo;
    std::atomic<bool> cancel_flag{false};
  };

  void scheduler_main();
  void run_gang(std::vector<JobRecord*> batch);
  Json status_locked(const JobRecord& rec) const GSTORE_REQUIRES(mu_);
  const JobRecord& find_locked(std::uint64_t id) const GSTORE_REQUIRES(mu_);

  ingest::EdgeIngestor& ingestor_;
  const ManagerOptions options_;
  SnapshotManager snapshots_;
  const graph::vid_t vertex_count_;  // fixed at conversion time

  mutable Mutex mu_{"JobManager::mu_"};
  // Scheduler wake-ups (new work / stop); completion broadcasts for wait().
  mutable CondVar work_cv_;
  mutable CondVar done_cv_;
  std::map<std::uint64_t, std::unique_ptr<JobRecord>> jobs_ GSTORE_GUARDED_BY(mu_);
  std::deque<JobRecord*> queue_ GSTORE_GUARDED_BY(mu_);
  std::uint64_t next_id_ GSTORE_GUARDED_BY(mu_) = 1;
  bool stop_ GSTORE_GUARDED_BY(mu_) = false;
  bool drain_ GSTORE_GUARDED_BY(mu_) = true;
  bool started_ GSTORE_GUARDED_BY(mu_) = false;
  ServerStats aggregate_ GSTORE_GUARDED_BY(mu_);

  std::thread scheduler_thread_;
};

struct ServeOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; the bound port is Server::port()
};

class Server {
 public:
  Server(JobManager& manager, ServeOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the acceptor. Throws IoError on bind failure.
  void start();
  int port() const noexcept { return port_; }

  // Wakes every blocked socket call and joins the acceptor and all
  // connection handlers. Idempotent. Does NOT stop the JobManager — the
  // daemon decides drain-vs-cancel semantics.
  void stop();

  // Blocks until some client issued a `shutdown` op (or stop() /
  // request_stop() was called from elsewhere). Returns the requested
  // drain flag.
  bool wait_shutdown() GSTORE_EXCLUDES(state_mu_);

  // Async-signal-safe shutdown request: a lock-free store, no mutex, no
  // condvar notify — callable from a signal handler. wait_shutdown()
  // polls the flag on a timed wait; the caller still runs stop() from
  // normal thread context afterwards. (Calling stop() from the handler
  // instead self-deadlocks: the signal can land on the thread blocked in
  // wait_shutdown() while it holds state_mu_ — the runtime lockdep
  // flags exactly that.)
  void request_stop() noexcept { async_stop_.store(true, std::memory_order_release); }

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void handle_connection(Conn* conn);
  // Answers one request. A `shutdown` sets stop_after_reply: the caller
  // signals it once the reply is sent.
  Json dispatch(const Json& request, bool& stop_after_reply);

  JobManager& manager_;
  const ServeOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;

  Mutex conn_mu_{"Server::conn_mu_"};
  std::vector<std::unique_ptr<Conn>> conns_ GSTORE_GUARDED_BY(conn_mu_);

  Mutex state_mu_{"Server::state_mu_"};
  CondVar shutdown_cv_;
  std::atomic<bool> async_stop_{false};  // set by request_stop() only
  bool shutdown_requested_ GSTORE_GUARDED_BY(state_mu_) = false;
  bool shutdown_drain_ GSTORE_GUARDED_BY(state_mu_) = true;
  bool stopped_ GSTORE_GUARDED_BY(state_mu_) = false;
};

}  // namespace gstore::serve
