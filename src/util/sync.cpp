// Lockdep-lite: runtime lock-order checking behind GSTORE_DCHECK builds.
//
// Model (a small subset of the kernel's lockdep): each Mutex instance is a
// node; acquiring B while holding A inserts the directed edge A → B into a
// global order graph the first time that pair is seen. An
// acquisition whose new edge closes a cycle (B is already an ancestor of A)
// is a potential deadlock — two threads interleaving those two orders can
// block forever — and aborts with the current thread's held stack and the
// remembered context of every edge on the conflicting path. Inversions are
// caught the first time both orders have *ever* been used, not only on the
// interleaving that actually deadlocks.
#include "util/sync.h"

#if GSTORE_LOCKDEP

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gstore::sync_detail {

namespace {

struct HeldLock {
  std::uint64_t id;
  const char* name;
};

// The held stack is per-thread and touched without any lock.
thread_local std::vector<HeldLock> t_held;

// Context remembered for the first recording of each order edge, so an
// inversion report can show where the conflicting order came from.
struct EdgeContext {
  std::string holder_name;    // lock already held
  std::string acquired_name;  // lock acquired under it
  std::string held_chain;     // full held stack at record time
  std::string thread_id;
};

// Global order graph. Guarded by graph_mu — a raw std::mutex on purpose:
// lockdep cannot use gstore::Mutex (it would recurse into itself), and this
// file is part of the sync component where rule R4 permits raw primitives.
std::mutex g_graph_mu;
std::map<std::uint64_t, std::set<std::uint64_t>>& successors() {
  static auto* s = new std::map<std::uint64_t, std::set<std::uint64_t>>();
  return *s;
}
std::map<std::pair<std::uint64_t, std::uint64_t>, EdgeContext>& edge_contexts() {
  static auto* m = new std::map<std::pair<std::uint64_t, std::uint64_t>, EdgeContext>();
  return *m;
}

std::string thread_id_string() {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu",
                std::hash<std::thread::id>{}(std::this_thread::get_id()));
  return std::string(buf);
}

std::string held_chain_string() {
  std::string s;
  for (const HeldLock& h : t_held) {
    if (!s.empty()) s += " -> ";
    s += h.name;
    s += "#" + std::to_string(h.id);
  }
  return s.empty() ? std::string("(nothing)") : s;
}

// Finds a path from → to in the order graph; fills `path` with the node
// sequence when found. Caller holds g_graph_mu.
bool find_path(std::uint64_t from, std::uint64_t to,
               std::vector<std::uint64_t>& path) {
  if (from == to) {
    path.push_back(from);
    return true;
  }
  auto it = successors().find(from);
  if (it == successors().end()) return false;
  path.push_back(from);
  for (std::uint64_t next : it->second) {
    // The graph is acyclic by construction (a cycle aborts before the edge
    // that would close it is inserted), so plain DFS terminates.
    if (find_path(next, to, path)) return true;
  }
  path.pop_back();
  return false;
}

[[noreturn]] void report_inversion(std::uint64_t held_id, const char* held_name,
                                   std::uint64_t acq_id, const char* acq_name,
                                   const std::vector<std::uint64_t>& path) {
  std::fprintf(stderr,
               "\n=== gstore lockdep: lock-order inversion (potential "
               "deadlock) ===\n"
               "this thread (%s) is acquiring \"%s\"#%llu while holding: %s\n"
               "but the reverse order \"%s\"#%llu -> ... -> \"%s\"#%llu was "
               "recorded earlier:\n",
               thread_id_string().c_str(), acq_name,
               static_cast<unsigned long long>(acq_id),
               held_chain_string().c_str(), acq_name,
               static_cast<unsigned long long>(acq_id), held_name,
               static_cast<unsigned long long>(held_id));
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    auto it = edge_contexts().find({path[i], path[i + 1]});
    if (it == edge_contexts().end()) continue;
    const EdgeContext& c = it->second;
    std::fprintf(stderr,
                 "  edge \"%s\" -> \"%s\": first recorded on thread %s "
                 "holding %s\n",
                 c.holder_name.c_str(), c.acquired_name.c_str(),
                 c.thread_id.c_str(), c.held_chain.c_str());
  }
  std::fprintf(stderr,
               "=== a thread interleaving these two orders deadlocks; fix "
               "the acquisition order ===\n");
  std::fflush(stderr);
  std::abort();
}

}  // namespace

std::uint64_t register_lock(const char* /*name*/) {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void before_acquire(std::uint64_t id, const char* name) {
  for (const HeldLock& h : t_held) {
    if (h.id == id) {
      std::fprintf(stderr,
                   "\n=== gstore lockdep: recursive acquisition of \"%s\"#%llu "
                   "(self-deadlock) ===\nheld stack: %s\n",
                   name, static_cast<unsigned long long>(id),
                   held_chain_string().c_str());
      std::fflush(stderr);
      std::abort();
    }
  }
  if (t_held.empty()) return;

  std::lock_guard<std::mutex> g(g_graph_mu);
  for (const HeldLock& h : t_held) {
    if (!successors()[h.id].insert(id).second) continue;  // edge already known
    // New edge h → id: adding it must not close a cycle, i.e. h must not be
    // reachable from id. Check before the edge becomes usable by others.
    std::vector<std::uint64_t> path;
    if (find_path(id, h.id, path)) {
      successors()[h.id].erase(id);
      report_inversion(h.id, h.name, id, name, path);
    }
    edge_contexts()[{h.id, id}] =
        EdgeContext{h.name, name, held_chain_string(), thread_id_string()};
  }
}

void on_acquired(std::uint64_t id, const char* name) {
  t_held.push_back(HeldLock{id, name});
}

void on_try_acquired(std::uint64_t id, const char* name) {
  // A successful try_lock holds the lock (later acquisitions under it must
  // be ordered), but the attempt itself cannot deadlock, so no edges.
  t_held.push_back(HeldLock{id, name});
}

void on_release(std::uint64_t id) {
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->id == id) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
  std::fprintf(stderr,
               "\n=== gstore lockdep: releasing lock #%llu not held by this "
               "thread ===\n",
               static_cast<unsigned long long>(id));
  std::fflush(stderr);
  std::abort();
}

}  // namespace gstore::sync_detail

#endif  // GSTORE_LOCKDEP
