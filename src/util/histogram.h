// Log-scale histogram used to report tile/group edge-count distributions
// (paper Figures 5 and 7).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gstore {

// Buckets values by power-of-`base` ranges: [0], [1,base), [base,base^2)...
class LogHistogram {
 public:
  explicit LogHistogram(std::uint64_t base = 10);

  void add(std::uint64_t value, std::uint64_t count = 1);

  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t zeros() const noexcept { return zeros_; }
  std::uint64_t max_value() const noexcept { return max_value_; }

  // Multi-line table: "bucket_lo..bucket_hi  count  percent".
  std::string to_string() const;

  struct Bucket {
    std::uint64_t lo, hi;  // half-open [lo, hi)
    std::uint64_t count;
  };
  std::vector<Bucket> buckets() const;

 private:
  std::uint64_t base_;
  std::uint64_t zeros_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t max_value_ = 0;
  std::vector<std::uint64_t> counts_;  // counts_[i] covers [base^i, base^(i+1))
};

}  // namespace gstore
