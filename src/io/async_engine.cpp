#include "io/async_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

#include "io/throttle.h"
#include "util/dcheck.h"
#include "util/status.h"
#include "util/sync.h"

namespace gstore::io {

ErrnoClass classify_errno(int err) noexcept {
  switch (err) {
    case EINTR:
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
      return ErrnoClass::kInterrupted;
    case EIO:
    case ENOMEM:
    case EBUSY:
    case ETIMEDOUT:
    case ENOSPC:
      return ErrnoClass::kTransient;
    default:
      return ErrnoClass::kPermanent;
  }
}

struct AsyncEngine::Impl {
  explicit Impl(Backend backend, std::size_t depth, std::size_t workers,
                RetryPolicy retry)
      : backend(backend), depth(depth == 0 ? 1 : depth), retry(retry) {
    if (backend == Backend::kThreadPool) {
      if (workers == 0) workers = 1;
      threads.reserve(workers);
      for (std::size_t i = 0; i < workers; ++i)
        threads.emplace_back([this] { worker_loop(); });
    }
  }

  ~Impl() {
    {
      MutexLock lock(mutex);
      stopping = true;
    }
    queue_cv.notify_all();
    for (auto& t : threads) t.join();
  }

  void sleep_backoff(int transient_attempt) {
    const double ms =
        std::min(retry.backoff_initial_ms *
                     static_cast<double>(1ull << std::min(transient_attempt, 30)),
                 retry.backoff_max_ms);
    backoff_micros.fetch_add(static_cast<std::uint64_t>(ms * 1000.0),
                             std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }

  // Executes one request to a final completion, performing all recovery
  // inline on the calling thread: transient errors retry with exponential
  // backoff, interrupt storms reissue against a separate budget, and short
  // reads before EOF resubmit the missing tail. Never throws — any
  // exception (including non-gstore ones like std::bad_alloc: a worker that
  // lets one escape takes the whole process down via std::terminate)
  // becomes a failed completion carrying the errno and message.
  Completion execute(const ReadRequest& req) {
    Completion c;
    c.tag = req.tag;
    std::size_t done = 0;       // bytes delivered so far (across resubmits)
    int transient_attempts = 0;
    int interrupt_attempts = 0;
    for (;;) {
      try {
        const std::size_t remaining = req.length - done;
        if (done == 0) {
          if (req.throttle != nullptr)
            req.throttle->acquire(req.length - req.slow_bytes);
          if (req.slow_throttle != nullptr && req.slow_bytes > 0)
            req.slow_throttle->acquire(req.slow_bytes);
        } else if (req.throttle != nullptr) {
          // Tail resubmit / retry: re-charge only the bytes about to be
          // re-read, against the fast tier (per-range tier attribution is
          // not worth recomputing for an emulated profile's error path).
          req.throttle->acquire(remaining);
        }
        const std::size_t got = req.length == 0
                                    ? 0
                                    : req.file->pread_some(req.buffer + done,
                                                           remaining,
                                                           req.offset + done);
        bytes_read.fetch_add(got, std::memory_order_relaxed);
        done += got;
        if (done == req.length || req.length == 0) {
          c.bytes = done;
          c.ok = true;
          return c;
        }
        // Short read. Distinguish EOF (legitimate: the caller asked past
        // the end) from a mid-file truncation the source may yet serve.
        if (req.offset + done >= req.file->size()) {
          c.bytes = done;
          c.ok = true;
          return c;
        }
        if (got == 0) {
          // The source claims more bytes exist but delivers none — without
          // this guard a truncated striped member would spin forever.
          c.bytes = done;
          c.ok = false;
          c.error = EIO;
          c.message = "read stalled at " + std::to_string(done) + "/" +
                      std::to_string(req.length) + " bytes (source reports " +
                      std::to_string(req.file->size()) + " total)";
          failed_reads.fetch_add(1, std::memory_order_relaxed);
          return c;
        }
        short_reads.fetch_add(1, std::memory_order_relaxed);
        continue;  // resubmit the tail
      } catch (const IoError& e) {
        const int err = e.sys_errno();
        switch (classify_errno(err)) {
          case ErrnoClass::kInterrupted:
            if (++interrupt_attempts <= retry.max_interrupts) {
              retries.fetch_add(1, std::memory_order_relaxed);
              continue;  // reissue immediately; interrupts carry no backoff
            }
            break;
          case ErrnoClass::kTransient:
            if (++transient_attempts <= retry.max_retries) {
              retries.fetch_add(1, std::memory_order_relaxed);
              sleep_backoff(transient_attempts - 1);
              continue;
            }
            break;
          case ErrnoClass::kPermanent:
            break;
        }
        c.bytes = done;
        c.ok = false;
        c.error = err;
        c.message = e.what();
      } catch (const std::exception& e) {
        c.bytes = done;
        c.ok = false;
        c.error = EIO;
        c.message = e.what();
      } catch (...) {
        c.bytes = done;
        c.ok = false;
        c.error = EIO;
        c.message = "unknown exception during read";
      }
      failed_reads.fetch_add(1, std::memory_order_relaxed);
      return c;
    }
  }

  // Collects every outstanding completion: waits until nothing is in
  // flight, then moves the whole completed queue out. Shared by drain() and
  // quiesce() so both keep in_flight() consistent and leave nothing behind.
  std::vector<Completion> reap_all() {
    // Swap the queue out under the lock, then build the result outside
    // it: reserve/push_back can take the allocator lock or fault pages,
    // and I/O workers would stall behind `mutex` for the duration.
    std::deque<Completion> drained;
    {
      MutexLock lock(mutex);
      // Workers only ever move inflight toward zero (this engine has no
      // requeue), so a single wait suffices; nothing is popped until
      // everything has landed.
      while (inflight != 0) done_cv.wait(mutex);
      drained.swap(completed);
    }
    std::vector<Completion> done;
    done.reserve(drained.size());
    for (Completion& c : drained) done.push_back(std::move(c));
    return done;
  }

  void worker_loop() {
    for (;;) {
      ReadRequest req;
      {
        MutexLock lock(mutex);
        while (!stopping && pending.empty()) queue_cv.wait(mutex);
        if (pending.empty()) return;  // stopping and drained
        req = pending.front();
        pending.pop_front();
      }
      Completion c = execute(req);
      {
        MutexLock lock(mutex);
        // GL-SAFE(GL1): one-element handoff; the deque grows by at most a
        // block and the alternative is an extra copy on every completion.
        completed.push_back(std::move(c));
        GSTORE_DCHECK_GT(inflight, 0);
        --inflight;
      }
      done_cv.notify_all();
      space_cv.notify_all();
    }
  }

  Backend backend;
  std::size_t depth;
  RetryPolicy retry;
  // cross-thread: bumped by I/O workers inside execute(), read lock-free by
  // the accessors; everything else below is guarded by `mutex`.
  std::atomic<std::uint64_t> bytes_read{0};
  // cross-thread (same contract as bytes_read).
  std::atomic<std::uint64_t> submit_calls{0};
  // cross-thread (same contract as bytes_read).
  std::atomic<std::uint64_t> retries{0};
  // cross-thread (same contract as bytes_read).
  std::atomic<std::uint64_t> short_reads{0};
  // cross-thread (same contract as bytes_read).
  std::atomic<std::uint64_t> failed_reads{0};
  // cross-thread (same contract as bytes_read).
  std::atomic<std::uint64_t> backoff_micros{0};

  Mutex mutex{"AsyncEngine::mutex"};
  CondVar queue_cv;   // workers wait for pending requests
  CondVar done_cv;    // pollers wait for completions
  CondVar space_cv;   // submitters wait for queue space
  std::deque<ReadRequest> pending GSTORE_GUARDED_BY(mutex);
  std::deque<Completion> completed GSTORE_GUARDED_BY(mutex);
  std::size_t inflight GSTORE_GUARDED_BY(mutex) = 0;  // pending + executing
  bool stopping GSTORE_GUARDED_BY(mutex) = false;
  std::vector<std::thread> threads;
};

AsyncEngine::AsyncEngine(Backend backend, std::size_t depth,
                         std::size_t workers, RetryPolicy retry)
    : impl_(std::make_unique<Impl>(backend, depth, workers, retry)) {}

AsyncEngine::~AsyncEngine() = default;

Completion AsyncEngine::execute(const ReadRequest& req) {
  return impl_->execute(req);
}

void AsyncEngine::submit(const std::vector<ReadRequest>& batch) {
  impl_->submit_calls.fetch_add(1, std::memory_order_relaxed);
  for (const auto& req : batch) {
    GS_CHECK_MSG(req.file != nullptr, "read request without a source");
    GS_CHECK_MSG(req.buffer != nullptr || req.length == 0,
                 "read request with null buffer");
  }

  if (impl_->backend == Backend::kSync) {
    // The synchronous baseline performs the reads inline, in submit order.
    std::vector<Completion> results;
    results.reserve(batch.size());
    for (const auto& req : batch) results.push_back(impl_->execute(req));
    {
      MutexLock lock(impl_->mutex);
      // GL-SAFE(GL1): batch publish point — results were produced outside
      // the lock; the pushes are the handoff itself.
      for (auto& c : results) impl_->completed.push_back(std::move(c));
    }
    impl_->done_cv.notify_all();
    return;
  }

  for (const auto& req : batch) {
    {
      MutexLock lock(impl_->mutex);
      while (impl_->inflight >= impl_->depth) impl_->space_cv.wait(impl_->mutex);
      // FIFO: the layout-ascending submit order, hence sequential I/O, is
      // the order workers take the requests in.
      // GL-SAFE(GL1): one-element enqueue under the queue's own lock; the
      // deque is bounded by `depth`, so growth is bounded too.
      impl_->pending.push_back(req);
      ++impl_->inflight;
      GSTORE_DCHECK_LE(impl_->inflight, impl_->depth);
      GSTORE_DCHECK_LE(impl_->pending.size(), impl_->inflight);
    }
    impl_->queue_cv.notify_one();
  }
}

std::size_t AsyncEngine::poll(std::size_t min_events, std::size_t max_events,
                              std::vector<Completion>& out) {
  if (max_events == 0) return 0;
  MutexLock lock(impl_->mutex);
  if (min_events > 0) {
    while (impl_->completed.size() < min_events &&
           impl_->completed.size() + impl_->inflight >= min_events)
      impl_->done_cv.wait(impl_->mutex);
    GS_CHECK_MSG(impl_->completed.size() + impl_->inflight >= min_events ||
                     !impl_->completed.empty(),
                 "poll(min) exceeds outstanding requests");
  }
  std::size_t n = 0;
  while (n < max_events && !impl_->completed.empty()) {
    // GL-SAFE(GL1): poll's contract is to move completions into the
    // caller's vector; callers reserve `max_events` ahead of the call.
    out.push_back(std::move(impl_->completed.front()));
    impl_->completed.pop_front();
    ++n;
  }
  return n;
}

void AsyncEngine::drain() {
  const std::vector<Completion> done = impl_->reap_all();
  // Everything is reaped and in_flight() == 0; only now report failures —
  // all of them, in one exception, so callers see the full blast radius
  // instead of the first unlucky tag.
  std::size_t failures = 0;
  int first_error = EIO;
  std::string tags;
  for (const auto& c : done) {
    if (c.ok) continue;
    if (failures == 0) first_error = c.error != 0 ? c.error : EIO;
    if (failures > 0) tags += ", ";
    tags += std::to_string(c.tag);
    if (!c.message.empty() && failures == 0) tags += " (" + c.message + ")";
    ++failures;
  }
  if (failures > 0)
    throw IoError("async read failed for " + std::to_string(failures) +
                      " request(s), tags: " + tags,
                  first_error);
}

std::size_t AsyncEngine::quiesce() noexcept {
  try {
    const std::vector<Completion> done = impl_->reap_all();
    std::size_t failures = 0;
    for (const auto& c : done)
      if (!c.ok) ++failures;
    return failures;
  } catch (...) {
    // reap_all only allocates; on allocation failure there is nothing more
    // a quiescing unwind path can do.
    return 0;
  }
}

std::size_t AsyncEngine::in_flight() const {
  MutexLock lock(impl_->mutex);
  return impl_->inflight;
}

std::uint64_t AsyncEngine::bytes_read() const noexcept {
  return impl_->bytes_read.load(std::memory_order_relaxed);
}

std::uint64_t AsyncEngine::submit_calls() const noexcept {
  return impl_->submit_calls.load(std::memory_order_relaxed);
}

RetryStats AsyncEngine::retry_stats() const noexcept {
  RetryStats s;
  s.retries = impl_->retries.load(std::memory_order_relaxed);
  s.short_reads = impl_->short_reads.load(std::memory_order_relaxed);
  s.failed_reads = impl_->failed_reads.load(std::memory_order_relaxed);
  s.backoff_seconds =
      static_cast<double>(
          impl_->backoff_micros.load(std::memory_order_relaxed)) /
      1e6;
  return s;
}

}  // namespace gstore::io
