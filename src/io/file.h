// RAII file wrapper with positional I/O through the page cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "io/source.h"

namespace gstore::io {

enum class OpenMode {
  kRead,        // existing file, read-only
  kWrite,       // create/truncate, write-only
  kReadWrite,   // create if missing, read/write
};

class File : public Source {
 public:
  File() = default;
  // Opens the file; throws IoError on failure.
  File(const std::string& path, OpenMode mode);

  File(File&& o) noexcept;
  File& operator=(File&& o) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File() override;

  bool is_open() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  const std::string& path() const noexcept { return path_; }

  // Reads exactly n bytes at offset; throws on short read or error.
  void pread_full(void* buf, std::size_t n, std::uint64_t offset) const;
  // Reads up to n bytes (tolerates EOF); returns bytes read.
  std::size_t pread_some(void* buf, std::size_t n,
                         std::uint64_t offset) const override;
  // Writes exactly n bytes at offset.
  void pwrite_full(const void* buf, std::size_t n, std::uint64_t offset) const;
  // Appends exactly n bytes at current size (tracked internally for kWrite).
  void append(const void* buf, std::size_t n);

  std::uint64_t size() const override;
  void truncate(std::uint64_t size) const;
  void sync() const;
  void close();

  static bool exists(const std::string& path);
  static void remove(const std::string& path);
  static std::uint64_t file_size(const std::string& path);
  static void rename(const std::string& from, const std::string& to);

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t append_offset_ = 0;
};

// Durability helpers for atomic-publish protocols (ingest compaction):
// fsync a directory so just-created/renamed entries survive power loss.
void fsync_dir(const std::string& dir_path);
// Directory component of `path` ("." when there is none).
std::string parent_dir(const std::string& path);
// rename(2) + fsync of the destination's parent directory: after this
// returns, a crash leaves exactly one of {from, to} visible — the publish
// primitive the compaction protocol builds on.
void atomic_publish(const std::string& from, const std::string& to);

// Creates a unique temporary directory (under $TMPDIR or /tmp) and removes
// it with all contents on destruction. Used by tests and benches.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "gstore");
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const noexcept { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace gstore::io
