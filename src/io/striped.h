// RAID-0 style striping over member files (paper §VII: "Linux software
// RAID0 to bundle the disks together with the stripe size set to 64KB").
//
// A striped set <base>.s0 … <base>.s{N-1} holds the logical file cut into
// fixed-size stripes dealt round-robin: stripe k lives in member k % N at
// member offset (k / N) × stripe_bytes. Reads spanning stripes are split
// and reassembled transparently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/file.h"
#include "io/source.h"

namespace gstore::io {

inline constexpr std::uint64_t kDefaultStripeBytes = 64 << 10;  // the paper's

// Splits an existing flat file into a striped set. Returns logical size.
std::uint64_t stripe_file(const std::string& flat_path,
                          const std::string& base_path, unsigned members,
                          std::uint64_t stripe_bytes = kDefaultStripeBytes);

class StripedFile final : public Source {
 public:
  // Opens <base>.s0 … ; member count and stripe size must match the writer.
  StripedFile(const std::string& base_path, unsigned members,
              std::uint64_t stripe_bytes = kDefaultStripeBytes);

  std::size_t pread_some(void* buf, std::size_t n,
                         std::uint64_t offset) const override;
  std::uint64_t size() const override { return logical_size_; }

  unsigned members() const noexcept {
    return static_cast<unsigned>(files_.size());
  }
  std::uint64_t stripe_bytes() const noexcept { return stripe_bytes_; }

  static std::string member_path(const std::string& base, unsigned index) {
    return base + ".s" + std::to_string(index);
  }

 private:
  std::vector<File> files_;
  std::uint64_t stripe_bytes_;
  std::uint64_t logical_size_ = 0;
};

}  // namespace gstore::io
