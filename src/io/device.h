// Storage device model: a file plus an optional emulated SSD-array profile.
//
// Device is the single entry point the engine uses to read graph data. It
// wires together the file, the async engine, a bandwidth throttle (for the
// SSD-scaling experiments), and I/O statistics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/async_engine.h"
#include "io/file.h"
#include "io/throttle.h"
#include "io/tiering.h"
#include "util/sync.h"

namespace gstore::io {

// Configuration for an emulated device array. With `devices == 0` (the
// default) reads run at native speed; otherwise aggregate bandwidth is
// devices × per_device_bw, modelling software RAID-0 over identical SSDs.
struct DeviceConfig {
  unsigned devices = 0;
  std::uint64_t per_device_bw = 500ull << 20;  // 500 MB/s, SATA-SSD class
  std::uint64_t burst_bytes = 1ull << 20;      // throttle token-bucket depth
  // Tiered storage (paper §IX future work): bandwidth of the slow tier
  // (e.g. an HDD). 0 disables tiering; byte placement comes from a TierMap
  // installed with set_tier_map().
  std::uint64_t slow_tier_bw = 0;
  // RAID-0 striping (the paper's testbed layout): with stripe_files > 0 the
  // device path is a striped-set base (<path>.s0 …) written by
  // io::stripe_file, read round-robin with stripe_bytes-sized stripes.
  unsigned stripe_files = 0;
  std::uint64_t stripe_bytes = 64 << 10;  // the paper's 64KB stripes
  Backend backend = Backend::kThreadPool;
  std::size_t queue_depth = 128;
  std::size_t io_workers = 4;
  bool direct = false;  // request O_DIRECT where the filesystem allows it
  // Bounded-retry contract the async engine applies to every read,
  // synchronous or batched. See io/async_engine.h.
  RetryPolicy retry;
  // Fault injection (io/fault.h): when non-empty, the opened source is
  // wrapped in a FaultInjectingSource with FaultSpec::parse(fault_spec).
  // Drives `gstore_run --fault-spec` and the chaos tests; empty in
  // production use.
  std::string fault_spec;
};

struct DeviceStats {
  std::uint64_t bytes_read = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t submit_calls = 0;
  // Recovery counters from the async engine (see RetryStats), for read()
  // and submit() alike: how many reads were retried, how many short reads
  // were resubmitted for their tail, how many exhausted the budget, and the
  // total backoff slept.
  std::uint64_t retries = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t failed_reads = 0;
  double backoff_seconds = 0;
};

class Device {
 public:
  Device(const std::string& path, DeviceConfig config = {});

  // Synchronous full read: one request, throttled and tier-routed like
  // submit()'s, run on the calling thread through the async engine's
  // per-request retry routine and counted in stats() alike. Throws IoError
  // unless all n bytes arrived.
  void read(void* buf, std::size_t n, std::uint64_t offset);

  // Batched asynchronous reads (throttled on submission, like a host-side
  // bandwidth limit). Completion via poll()/drain().
  void submit(std::vector<ReadRequest> batch);
  std::size_t poll(std::size_t min_events, std::size_t max_events,
                   std::vector<Completion>& out);
  void drain();
  // Waits out every in-flight request without throwing (unwind-path
  // barrier); returns the number of failed completions discarded.
  std::size_t quiesce() noexcept;
  // Submitted requests whose completions have not been reaped yet.
  std::size_t in_flight() const { return engine_.in_flight(); }

  std::uint64_t size() const { return source_->size(); }

  DeviceStats stats() const;
  void reset_stats();

  const DeviceConfig& config() const noexcept { return config_; }

  // Installs the byte-range → tier assignment. Only meaningful when
  // config.slow_tier_bw > 0. Safe to call while reads are in flight: the
  // map is swapped under a writer lock and each read routes under a reader
  // lock.
  void set_tier_map(TierMap map) GSTORE_EXCLUDES(tier_mutex_);
  // Snapshot of the installed map (by value: the member may be swapped by
  // set_tier_map() concurrently).
  TierMap tier_map() const GSTORE_EXCLUDES(tier_mutex_);

 private:
  // Points a request at this device: its source, the throttle, and the
  // slow-tier share of its bytes.
  void route(ReadRequest& req) GSTORE_EXCLUDES(tier_mutex_);

  DeviceConfig config_;
  std::unique_ptr<Source> source_;
  Throttle throttle_;
  Throttle slow_throttle_;
  mutable SharedMutex tier_mutex_{"Device::tier_mutex_"};
  TierMap tier_map_ GSTORE_GUARDED_BY(tier_mutex_);
  AsyncEngine engine_;
  // cross-thread: TileStore advertises thread-compatible concurrent reads,
  // so the counter read()/submit() bump must be atomic.
  std::atomic<std::uint64_t> read_ops_{0};
  mutable Mutex stats_mutex_{"Device::stats_mutex_"};
  std::uint64_t stats_bytes_base_ GSTORE_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stats_submit_base_ GSTORE_GUARDED_BY(stats_mutex_) = 0;
  RetryStats stats_retry_base_ GSTORE_GUARDED_BY(stats_mutex_);
};

}  // namespace gstore::io
