// Batched asynchronous read engine.
//
// G-Store (the paper) batches tile reads into single Linux AIO submissions
// (io_submit / io_getevents) so one system call covers many tiles, and polls
// completions while compute proceeds on previously fetched data. libaio is
// not available in this environment, so AsyncEngine reproduces the exact
// programming model — batch submit, completion polling, bounded in-flight
// queue — on top of a worker pool issuing pread(2). A synchronous backend is
// provided for the paper's AIO-vs-POSIX comparison. Every read, batched or
// not, runs through one per-request retry routine (execute()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/file.h"

namespace gstore::io {

class Throttle;

// Errno classification driving the retry decision. The taxonomy follows
// what the kernel actually hands back from block-device reads:
//   kInterrupted — EINTR/EAGAIN/EWOULDBLOCK: the syscall never ran to
//                  completion; reissue immediately (storms are bounded by a
//                  generous separate budget, no backoff needed).
//   kTransient   — EIO/ENOMEM/EBUSY/ETIMEDOUT/ENOSPC pressure-class errors
//                  a retry with backoff can outlive (a flaky link, a
//                  momentarily saturated controller).
//   kPermanent   — everything else (EBADF, EINVAL, EFAULT, ENXIO, ...):
//                  retrying cannot help; fail the request now.
enum class ErrnoClass { kInterrupted, kTransient, kPermanent };
ErrnoClass classify_errno(int err) noexcept;

// Bounded-retry contract for one read request. All recovery is performed by
// the thread executing the request (an I/O worker, or the caller of
// execute()), so submitters and pollers never see a transient failure at
// all — only requests that exhausted their budget complete with ok == false.
// A short read before EOF is not an error: its missing tail is resubmitted
// (offset, length and buffer advanced past the delivered bytes).
struct RetryPolicy {
  int max_retries = 4;         // budget for kTransient failures
  int max_interrupts = 256;    // budget for kInterrupted storms
  double backoff_initial_ms = 1.0;   // doubles per transient retry...
  double backoff_max_ms = 100.0;     // ...capped here
};

// Recovery counters, aggregated across all requests since construction.
struct RetryStats {
  std::uint64_t retries = 0;       // error retries (interrupted + transient)
  std::uint64_t short_reads = 0;   // tail resubmissions after short reads
  std::uint64_t failed_reads = 0;  // requests completed with ok == false
  double backoff_seconds = 0;      // total time spent sleeping in backoff
};

// One read request: fill `buffer[0..length)` from `file` at `offset`.
// `file` may be a plain File or any other Source (e.g. a striped set).
struct ReadRequest {
  const Source* file = nullptr;
  std::uint64_t offset = 0;
  std::size_t length = 0;
  std::uint8_t* buffer = nullptr;
  std::uint64_t tag = 0;  // opaque caller cookie, returned in the Completion
  // Optional device pacing: the executing worker acquires `length` tokens
  // before reading, so emulated device latency stays off the compute thread.
  Throttle* throttle = nullptr;
  // Tiered storage: `slow_bytes` of the request live on the slow tier and
  // are charged against `slow_throttle` instead (see io/tiering.h).
  Throttle* slow_throttle = nullptr;
  std::size_t slow_bytes = 0;
};

struct Completion {
  std::uint64_t tag = 0;
  std::size_t bytes = 0;   // bytes actually read (may be < length at EOF)
  bool ok = true;          // false if the read failed past its retry budget
  int error = 0;           // errno-style code when !ok (0 otherwise)
  std::string message;     // failure detail (exception what()) when !ok
};

enum class Backend {
  kThreadPool,  // asynchronous: worker threads execute preads
  kSync,        // synchronous: requests complete inside submit() — the
                // "direct and synchronous POSIX I/O" baseline from the paper
};

class AsyncEngine {
 public:
  // `depth` bounds in-flight requests (like the aio context's nr_events);
  // `workers` is the number of I/O threads for the thread-pool backend.
  explicit AsyncEngine(Backend backend = Backend::kThreadPool,
                       std::size_t depth = 128, std::size_t workers = 4,
                       RetryPolicy retry = {});
  ~AsyncEngine();

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  // Runs one request to its final completion on the calling thread: the
  // per-request routine every worker (and the kSync backend) runs, with
  // the same retries, backoff and tail resubmits, counted in bytes_read()
  // and retry_stats(). Never throws; a read past its budget comes back
  // with ok == false.
  Completion execute(const ReadRequest& req);

  // Submits a batch of reads in one call (mirrors io_submit). Blocks only
  // if the in-flight queue is full. Workers take requests in submit (FIFO)
  // order. Buffers must stay valid until the matching completion is polled.
  void submit(const std::vector<ReadRequest>& batch);

  // Waits for at least `min_events` completions (0 = non-blocking peek) and
  // appends up to `max_events` of them to `out`. Mirrors io_getevents.
  // Returns the number of completions delivered.
  std::size_t poll(std::size_t min_events, std::size_t max_events,
                   std::vector<Completion>& out);

  // Convenience: waits until ALL in-flight requests complete (keeping
  // in_flight() consistent throughout), discards the completions, then — if
  // any failed — throws a single IoError listing every failed tag. Nothing
  // is left in flight when the exception propagates.
  void drain();

  // Like drain() but never throws: waits out every in-flight request and
  // discards all completions. Returns the number of failed completions
  // discarded. This is the unwind-path primitive — callers about to
  // propagate an exception call quiesce() first so no worker is still
  // writing into buffers the unwind is about to free.
  std::size_t quiesce() noexcept;

  std::size_t in_flight() const;

  // Total bytes read through this engine (successful completions).
  std::uint64_t bytes_read() const noexcept;
  // Total submit() calls — the paper counts system calls saved by batching.
  std::uint64_t submit_calls() const noexcept;
  // Recovery counters (retries, short-read resubmits, failures, backoff).
  RetryStats retry_stats() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gstore::io
