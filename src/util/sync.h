// Annotated synchronization primitives: the only place in the codebase that
// may touch <mutex>/<condition_variable> directly
// (tools/check_concurrency.py rule R4 enforces this).
//
// Two layers, both zero-cost in release builds:
//
// 1. Clang Thread Safety Analysis. Every wrapper carries the capability
//    attributes, so annotating a member `GSTORE_GUARDED_BY(mu_)` and a
//    method `GSTORE_REQUIRES(mu_)` turns lock misuse into a compile error
//    under clang's `-Wthread-safety -Werror` (the `thread-safety` CI job and
//    the `tidy` preset). Under gcc the attributes expand to nothing.
//
// 2. Lockdep-lite (GSTORE_DCHECK builds only). Every Mutex acquisition is
//    recorded in a per-thread held-lock stack and a global lock-order graph;
//    acquiring B while holding A when some thread previously acquired A
//    while holding B is a potential deadlock, and aborts immediately with
//    both acquisition contexts printed — even if this particular run never
//    actually deadlocks. docs/CORRECTNESS.md explains how to read a report.
//
// Escape hatch: `GSTORE_NO_THREAD_SAFETY_ANALYSIS` disables the analysis
// for one function. Every use must carry a `// SAFETY:` comment justifying
// it (check_concurrency.py rule R5), e.g. a documented external
// synchronization contract the analysis cannot see.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/dcheck.h"

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (no-ops outside clang).
// ---------------------------------------------------------------------------
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define GSTORE_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#if !defined(GSTORE_THREAD_ANNOTATION_)
#define GSTORE_THREAD_ANNOTATION_(x)
#endif

// On types: this class is a lockable capability (e.g. a mutex).
#define GSTORE_CAPABILITY(x) GSTORE_THREAD_ANNOTATION_(capability(x))
// On types: RAII object that acquires in its ctor and releases in its dtor.
#define GSTORE_SCOPED_CAPABILITY GSTORE_THREAD_ANNOTATION_(scoped_lockable)
// On data members: reads/writes require holding the named capability.
#define GSTORE_GUARDED_BY(x) GSTORE_THREAD_ANNOTATION_(guarded_by(x))
// On pointer members: the pointed-to data requires the capability.
#define GSTORE_PT_GUARDED_BY(x) GSTORE_THREAD_ANNOTATION_(pt_guarded_by(x))
// On functions: caller must hold the capabilities.
#define GSTORE_REQUIRES(...) \
  GSTORE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
// On functions: the function acquires / releases the capabilities.
#define GSTORE_ACQUIRE(...) \
  GSTORE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define GSTORE_RELEASE(...) \
  GSTORE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define GSTORE_TRY_ACQUIRE(...) \
  GSTORE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
// On functions: caller must NOT hold the capabilities (deadlock guard).
#define GSTORE_EXCLUDES(...) GSTORE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
// On functions: tells the analysis the capability is held (runtime-checked
// elsewhere); used for assertion helpers.
#define GSTORE_ASSERT_CAPABILITY(x) GSTORE_THREAD_ANNOTATION_(assert_capability(x))
// On functions: returns a reference to the named capability.
#define GSTORE_RETURN_CAPABILITY(x) GSTORE_THREAD_ANNOTATION_(lock_returned(x))
// Audited escape hatch; requires a SAFETY justification comment (lint R5).
#define GSTORE_NO_THREAD_SAFETY_ANALYSIS \
  GSTORE_THREAD_ANNOTATION_(no_thread_safety_analysis)

// Lockdep rides the DCHECK switch: on in Debug/sanitizer builds, compiled
// out (plain std::mutex forwarding, fully inlinable) in release.
#if !defined(GSTORE_LOCKDEP)
#define GSTORE_LOCKDEP GSTORE_DCHECK_ENABLED
#endif

namespace gstore {

#if GSTORE_LOCKDEP
namespace sync_detail {
// Assigns a process-unique id to a lock instance (ids are never reused, so
// the order graph cannot alias a destroyed lock with a new one).
std::uint64_t register_lock(const char* name);
// Records `id` as about-to-be-acquired: checks the per-thread held stack
// for recursion and the global order graph for an inversion, aborting with
// both acquisition contexts on a violation. Call BEFORE blocking on the
// native lock so a real deadlock still produces the report.
void before_acquire(std::uint64_t id, const char* name);
// Pushes onto the per-thread held stack once the native lock is owned.
void on_acquired(std::uint64_t id, const char* name);
// try_lock success: held-stack entry only — a failed try cannot deadlock,
// so no order edges are recorded for the attempt.
void on_try_acquired(std::uint64_t id, const char* name);
void on_release(std::uint64_t id);
}  // namespace sync_detail
#endif  // GSTORE_LOCKDEP

// Exclusive mutex. The `name` (static string) appears in lockdep reports.
class GSTORE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() : Mutex("mutex") {}
  explicit Mutex(const char* name) {
#if GSTORE_LOCKDEP
    name_ = name;
    ld_id_ = sync_detail::register_lock(name);
#else
    (void)name;
#endif
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GSTORE_ACQUIRE() {
#if GSTORE_LOCKDEP
    sync_detail::before_acquire(ld_id_, name_);
    m_.lock();
    sync_detail::on_acquired(ld_id_, name_);
#else
    m_.lock();
#endif
  }

  void unlock() GSTORE_RELEASE() {
#if GSTORE_LOCKDEP
    sync_detail::on_release(ld_id_);
#endif
    m_.unlock();
  }

  bool try_lock() GSTORE_TRY_ACQUIRE(true) {
    const bool ok = m_.try_lock();
#if GSTORE_LOCKDEP
    if (ok) sync_detail::on_try_acquired(ld_id_, name_);
#endif
    return ok;
  }

 private:
  friend class CondVar;
  std::mutex m_;
#if GSTORE_LOCKDEP
  const char* name_ = "mutex";
  std::uint64_t ld_id_ = 0;
#endif
};

// RAII exclusive lock.
class GSTORE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GSTORE_ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }
  ~MutexLock() GSTORE_RELEASE() { mu_->unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Condition variable bound to Mutex. wait() must be called with `mu` held;
// as with std::condition_variable the lock is released while blocked and
// reacquired before return, so the caller re-checks its predicate in a
// `while` loop (which is also the shape the thread-safety analysis can
// follow — predicate lambdas would escape it).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(Mutex& mu) GSTORE_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then leak ownership
    // back to the caller's scope. Lockdep keeps the lock on the held stack
    // across the wait: the thread is blocked, so no order edges can form,
    // and the post-wake state (lock held) matches the stack again.
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  // Timed wait: returns false if `timeout` elapsed without a notification.
  // Same contract as wait() — caller holds `mu` and re-checks its predicate
  // in a while loop (spurious wakeups and timeouts look identical to it).
  bool wait_for(Mutex& mu, std::chrono::milliseconds timeout)
      GSTORE_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, timeout);
    native.release();
    return status == std::cv_status::no_timeout;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace gstore
