// Bandwidth throttle emulating a storage device.
//
// Implemented as a virtual-time reservation queue: each acquire(bytes)
// reserves the next bytes/rate seconds of device time and sleeps until its
// reservation completes. Properties that matter for honest emulation:
//   * sustained rate is exact (reservations are back-to-back);
//   * idle time is lost (a disk cannot bank bandwidth while the CPU
//     computes) apart from one small `burst` worth of credit that models
//     request pipelining in the device;
//   * concurrent requesters serialize through the queue like commands at a
//     single device, so N-worker submission cannot exceed the device rate.
//
// Used to emulate SSD arrays (aggregate rate = devices × per-device rate)
// and HDD tiers for the scaling / tiered-storage experiments. The rate is
// fixed at construction.
#pragma once

#include <chrono>
#include <cstdint>

#include "util/sync.h"

namespace gstore::io {

class Throttle {
 public:
  // bytes_per_second == 0 disables throttling entirely.
  explicit Throttle(std::uint64_t bytes_per_second = 0,
                    std::uint64_t burst_bytes = 1 << 20);

  // Blocks until `bytes` of device time have been reserved and elapsed.
  void acquire(std::uint64_t bytes) GSTORE_EXCLUDES(mutex_);

  bool enabled() const noexcept { return rate_ != 0; }

 private:
  using clock = std::chrono::steady_clock;

  const std::uint64_t rate_;
  const std::uint64_t burst_;
  Mutex mutex_{"Throttle::mutex_"};
  // when the device finishes current work
  clock::time_point next_free_ GSTORE_GUARDED_BY(mutex_);
};

}  // namespace gstore::io
