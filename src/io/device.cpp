#include "io/device.h"

#include "io/fault.h"
#include "io/striped.h"
#include "util/status.h"

namespace gstore::io {

namespace {
std::uint64_t aggregate_bw(const DeviceConfig& c) {
  return c.devices == 0 ? 0 : c.devices * c.per_device_bw;
}

std::unique_ptr<Source> open_source(const std::string& path,
                                    const DeviceConfig& c) {
  std::unique_ptr<Source> src;
  if (c.stripe_files > 0)
    src = std::make_unique<StripedFile>(path, c.stripe_files, c.stripe_bytes,
                                        c.direct);
  else
    src = std::make_unique<File>(path, OpenMode::kRead, c.direct);
  if (!c.fault_spec.empty()) {
    const FaultSpec spec = FaultSpec::parse(c.fault_spec);
    if (!spec.empty())
      src = std::make_unique<FaultInjectingSource>(std::move(src), spec);
  }
  return src;
}
}  // namespace

Device::Device(const std::string& path, DeviceConfig config)
    : config_(config),
      source_(open_source(path, config)),
      throttle_(aggregate_bw(config), config.burst_bytes),
      slow_throttle_(config.slow_tier_bw, config.burst_bytes),
      engine_(config.backend, config.queue_depth, config.io_workers,
              config.retry) {}

void Device::set_tier_map(TierMap map) {
  WriterMutexLock lock(tier_mutex_);
  tier_map_ = std::move(map);
}

TierMap Device::tier_map() const {
  ReaderMutexLock lock(tier_mutex_);
  return tier_map_;
}

void Device::route(ReadRequest& req) {
  req.file = source_.get();
  // Pacing happens on the thread executing the request (an I/O worker for
  // submit()) so emulated device time overlaps with compute, exactly like a
  // real disk.
  req.throttle = throttle_.enabled() ? &throttle_ : nullptr;
  ReaderMutexLock lock(tier_mutex_);
  if (config_.slow_tier_bw == 0 || tier_map_.empty()) return;
  const std::uint64_t slow =
      tier_map_.split(req.offset, req.offset + req.length).second;
  if (slow > 0) {
    req.slow_throttle = &slow_throttle_;
    req.slow_bytes = static_cast<std::size_t>(slow);
  }
}

void Device::read(void* buf, std::size_t n, std::uint64_t offset) {
  ReadRequest req;
  req.offset = offset;
  req.length = n;
  req.buffer = static_cast<std::uint8_t*>(buf);
  route(req);
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  const Completion c = engine_.execute(req);
  if (!c.ok)
    throw IoError("read at offset " + std::to_string(offset) + " failed (" +
                      c.message + ")",
                  c.error);
  if (c.bytes != n)
    throw IoError("short read at offset " + std::to_string(offset) + " (" +
                      std::to_string(c.bytes) + "/" + std::to_string(n) +
                      " bytes)",
                  EIO);
}

void Device::submit(std::vector<ReadRequest> batch) {
  for (auto& req : batch) route(req);
  read_ops_.fetch_add(batch.size(), std::memory_order_relaxed);
  engine_.submit(batch);
}

std::size_t Device::poll(std::size_t min_events, std::size_t max_events,
                         std::vector<Completion>& out) {
  return engine_.poll(min_events, max_events, out);
}

void Device::drain() { engine_.drain(); }

std::size_t Device::quiesce() noexcept { return engine_.quiesce(); }

DeviceStats Device::stats() const {
  MutexLock lock(stats_mutex_);
  DeviceStats s;
  s.bytes_read = engine_.bytes_read() - stats_bytes_base_;
  s.read_ops = read_ops_.load(std::memory_order_relaxed);
  s.submit_calls = engine_.submit_calls() - stats_submit_base_;
  const RetryStats r = engine_.retry_stats();
  s.retries = r.retries - stats_retry_base_.retries;
  s.short_reads = r.short_reads - stats_retry_base_.short_reads;
  s.failed_reads = r.failed_reads - stats_retry_base_.failed_reads;
  s.backoff_seconds = r.backoff_seconds - stats_retry_base_.backoff_seconds;
  return s;
}

void Device::reset_stats() {
  MutexLock lock(stats_mutex_);
  stats_bytes_base_ = engine_.bytes_read();
  stats_submit_base_ = engine_.submit_calls();
  stats_retry_base_ = engine_.retry_stats();
  read_ops_.store(0, std::memory_order_relaxed);
}

}  // namespace gstore::io
