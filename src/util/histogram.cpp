#include "util/histogram.h"

#include <algorithm>
#include <sstream>

#include "util/status.h"

namespace gstore {

LogHistogram::LogHistogram(std::uint64_t base) : base_(base) {
  GS_CHECK_MSG(base >= 2, "histogram base must be >= 2");
}

void LogHistogram::add(std::uint64_t value, std::uint64_t count) {
  total_ += count;
  max_value_ = std::max(max_value_, value);
  if (value == 0) {
    zeros_ += count;
    return;
  }
  std::size_t bucket = 0;
  std::uint64_t hi = base_;
  while (value >= hi) {
    ++bucket;
    if (hi > ~std::uint64_t{0} / base_) {  // would overflow; clamp to last bucket
      break;
    }
    hi *= base_;
  }
  if (counts_.size() <= bucket) counts_.resize(bucket + 1, 0);
  counts_[bucket] += count;
}

std::vector<LogHistogram::Bucket> LogHistogram::buckets() const {
  std::vector<Bucket> out;
  if (zeros_ > 0) out.push_back({0, 1, zeros_});
  std::uint64_t lo = 1;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t hi = lo * base_;
    if (counts_[i] > 0) out.push_back({lo, hi, counts_[i]});
    lo = hi;
  }
  return out;
}

std::string LogHistogram::to_string() const {
  std::ostringstream os;
  for (const auto& b : buckets()) {
    const double pct =
        total_ ? 100.0 * static_cast<double>(b.count) / static_cast<double>(total_)
               : 0.0;
    os << "[" << b.lo << ", " << b.hi << ")\t" << b.count << "\t" << pct << "%\n";
  }
  return os.str();
}

}  // namespace gstore
