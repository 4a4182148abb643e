#include "io/throttle.h"

#include <algorithm>
#include <thread>

namespace gstore::io {

Throttle::Throttle(std::uint64_t bytes_per_second, std::uint64_t burst_bytes)
    : rate_(bytes_per_second),
      burst_(std::max<std::uint64_t>(burst_bytes, 4 << 10)),
      next_free_(clock::now()) {}

void Throttle::acquire(std::uint64_t bytes) {
  if (rate_ == 0) return;
  const double rate = static_cast<double>(rate_);
  clock::time_point finish;
  {
    MutexLock lock(mutex_);
    const auto now = clock::now();
    // The device may have been idle: it cannot bank that time, except for a
    // small burst of pipelined work.
    const auto burst_credit =
        std::chrono::duration_cast<clock::duration>(
            std::chrono::duration<double>(static_cast<double>(burst_) / rate));
    const auto start = std::max(now - burst_credit, next_free_);
    const auto cost = std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double>(static_cast<double>(bytes) / rate));
    finish = start + cost;
    next_free_ = finish;
  }
  std::this_thread::sleep_until(finish);
}

}  // namespace gstore::io
