#include "io/striped.h"

#include <algorithm>

#include "util/status.h"

namespace gstore::io {

void Source::pread_full(void* buf, std::size_t n, std::uint64_t offset) const {
  const std::size_t got = pread_some(buf, n, offset);
  if (got != n)
    throw IoError("short read at offset " + std::to_string(offset) + " (" +
                      std::to_string(got) + "/" + std::to_string(n) +
                      " bytes)",
                  EIO);
}

std::uint64_t stripe_file(const std::string& flat_path,
                          const std::string& base_path, unsigned members,
                          std::uint64_t stripe_bytes) {
  GS_CHECK_MSG(members >= 1, "need at least one stripe member");
  GS_CHECK_MSG(stripe_bytes >= 512, "stripe size too small");
  File src(flat_path, OpenMode::kRead);
  const std::uint64_t total = src.size();

  std::vector<File> out;
  out.reserve(members);
  for (unsigned k = 0; k < members; ++k)
    out.emplace_back(StripedFile::member_path(base_path, k), OpenMode::kWrite);

  std::vector<std::uint8_t> buf(stripe_bytes);
  std::uint64_t off = 0;
  std::uint64_t stripe = 0;
  while (off < total) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(stripe_bytes, total - off));
    src.pread_full(buf.data(), n, off);
    out[stripe % members].append(buf.data(), n);
    off += n;
    ++stripe;
  }
  for (auto& f : out) f.sync();
  return total;
}

StripedFile::StripedFile(const std::string& base_path, unsigned members,
                         std::uint64_t stripe_bytes)
    : stripe_bytes_(stripe_bytes) {
  GS_CHECK_MSG(members >= 1, "need at least one stripe member");
  GS_CHECK_MSG(stripe_bytes >= 512, "stripe size too small");
  files_.reserve(members);
  for (unsigned k = 0; k < members; ++k) {
    files_.emplace_back(member_path(base_path, k), OpenMode::kRead);
    logical_size_ += files_.back().size();
  }
}

std::size_t StripedFile::pread_some(void* buf, std::size_t n,
                                    std::uint64_t offset) const {
  auto* out = static_cast<std::uint8_t*>(buf);
  const unsigned members = static_cast<unsigned>(files_.size());
  std::size_t done = 0;
  while (done < n && offset + done < logical_size_) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t stripe = pos / stripe_bytes_;
    const std::uint64_t in_stripe = pos % stripe_bytes_;
    const unsigned member = static_cast<unsigned>(stripe % members);
    const std::uint64_t member_off =
        (stripe / members) * stripe_bytes_ + in_stripe;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>({n - done, stripe_bytes_ - in_stripe,
                                 logical_size_ - pos}));
    const std::size_t got =
        files_[member].pread_some(out + done, want, member_off);
    done += got;
    if (got < want) {
      // `want` was already clamped to the logical size, so a short member
      // read means the set is internally inconsistent: this member holds
      // fewer bytes than the round-robin layout requires for the total the
      // members advertise. Returning a silently truncated buffer here is
      // how a degraded array corrupts results downstream — fail loudly so
      // the engine's retry/abort machinery takes over.
      throw IoError("striped member " + files_[member].path() +
                        " is truncated: stripe " + std::to_string(stripe) +
                        " at member offset " + std::to_string(member_off) +
                        " delivered " + std::to_string(got) + "/" +
                        std::to_string(want) + " bytes",
                    EIO);
    }
  }
  return done;
}

}  // namespace gstore::io
