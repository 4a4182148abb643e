// Storage device model: a file plus an optional emulated SSD-array profile.
//
// Device is the single entry point the engine uses to read graph data. It
// wires together the file, the async engine, a bandwidth throttle (for the
// SSD-scaling experiments), and I/O statistics. Everything that shapes a
// read (source, rates, tier placement) is fixed at construction, and the
// counters only grow: a run's share is the difference of two stats()
// snapshots.
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

namespace gstore::io {

// Configuration for an emulated device array. With `devices == 0` (the
// default) reads run at native speed; otherwise aggregate bandwidth is
// devices × per_device_bw, modelling software RAID-0 over identical SSDs.
struct DeviceConfig {
  unsigned devices = 0;
  std::uint64_t per_device_bw = 500ull << 20;  // 500 MB/s, SATA-SSD class
  std::uint64_t burst_bytes = 1ull << 20;      // throttle token-bucket depth
  // Tiered storage (paper §IX future work): bandwidth of the slow tier
  // (e.g. an HDD). 0 disables tiering; byte placement comes from the TierMap
  // passed to the Device constructor.
  std::uint64_t slow_tier_bw = 0;
  // RAID-0 striping (the paper's testbed layout): with stripe_files > 0 the
  // device path is a striped-set base (<path>.s0 …) written by
  // io::stripe_file, read round-robin with stripe_bytes-sized stripes.
  unsigned stripe_files = 0;
  std::uint64_t stripe_bytes = 64 << 10;  // the paper's 64KB stripes
  Backend backend = Backend::kThreadPool;
  std::size_t queue_depth = 128;
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

// Counter growth from snapshot `start` to the later snapshot `end` of the
// same device.
DeviceStats operator-(const DeviceStats& end, const DeviceStats& start);

class Device {
 public:
  // `tier_map` assigns byte ranges to the slow tier; it is used only when
  // config.slow_tier_bw > 0.
  Device(const std::string& path, DeviceConfig config = {},
         TierMap tier_map = {});

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

  // Counters since construction.
  DeviceStats stats() const;

  const DeviceConfig& config() const noexcept { return config_; }
  const TierMap& tier_map() const noexcept { return tier_map_; }

 private:
  // Points a request at this device: its source, the throttle, and the
  // slow-tier share of its bytes.
  void route(ReadRequest& req);

  const DeviceConfig config_;
  const TierMap tier_map_;
  std::unique_ptr<Source> source_;
  Throttle throttle_;
  Throttle slow_throttle_;
  AsyncEngine engine_;
  // cross-thread: TileStore advertises thread-compatible concurrent reads,
  // so the counter read()/submit() bump must be atomic.
  std::atomic<std::uint64_t> read_ops_{0};
};

}  // namespace gstore::io
