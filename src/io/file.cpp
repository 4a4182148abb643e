#include "io/file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "util/status.h"

namespace gstore::io {

namespace {
int open_flags(OpenMode mode) {
  switch (mode) {
    case OpenMode::kRead: return O_RDONLY;
    case OpenMode::kWrite: return O_WRONLY | O_CREAT | O_TRUNC;
    case OpenMode::kReadWrite: return O_RDWR | O_CREAT;
  }
  return O_RDONLY;
}
}  // namespace

File::File(const std::string& path, OpenMode mode) : path_(path) {
  fd_ = ::open(path.c_str(), open_flags(mode), 0644);
  if (fd_ < 0) throw IoError("open " + path);
  if (mode == OpenMode::kWrite) append_offset_ = 0;
  else if (mode == OpenMode::kReadWrite) append_offset_ = size();
}

File::File(File&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      path_(std::move(o.path_)),
      append_offset_(o.append_offset_) {}

File& File::operator=(File&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = std::exchange(o.fd_, -1);
    path_ = std::move(o.path_);
    append_offset_ = o.append_offset_;
  }
  return *this;
}

File::~File() { close(); }

void File::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void File::pread_full(void* buf, std::size_t n, std::uint64_t offset) const {
  const std::size_t got = pread_some(buf, n, offset);
  if (got != n)
    throw IoError("short read from " + path_ + " at offset " +
                      std::to_string(offset) + " (" + std::to_string(got) +
                      "/" + std::to_string(n) + " bytes)",
                  EIO);
}

std::size_t File::pread_some(void* buf, std::size_t n, std::uint64_t offset) const {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got =
        ::pread(fd_, p + done, n - done, static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw IoError("pread " + path_ + " at offset " +
                    std::to_string(offset + done));
    }
    if (got == 0) break;  // EOF
    done += static_cast<std::size_t>(got);
  }
  return done;
}

void File::pwrite_full(const void* buf, std::size_t n, std::uint64_t offset) const {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t put =
        ::pwrite(fd_, p + done, n - done, static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      throw IoError("pwrite " + path_ + " at offset " +
                    std::to_string(offset + done));
    }
    done += static_cast<std::size_t>(put);
  }
}

void File::append(const void* buf, std::size_t n) {
  pwrite_full(buf, n, append_offset_);
  append_offset_ += n;
}

std::uint64_t File::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) throw IoError("fstat " + path_);
  return static_cast<std::uint64_t>(st.st_size);
}

void File::truncate(std::uint64_t size) const {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0)
    throw IoError("ftruncate " + path_);
}

void File::sync() const {
  if (::fsync(fd_) != 0) throw IoError("fsync " + path_);
}

bool File::exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void File::remove(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT)
    throw IoError("unlink " + path);
}

std::uint64_t File::file_size(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) throw IoError("stat " + path);
  return static_cast<std::uint64_t>(st.st_size);
}

void File::rename(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0)
    throw IoError("rename " + from + " -> " + to);
}

void fsync_dir(const std::string& dir_path) {
  const int fd = ::open(dir_path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw IoError("open dir " + dir_path);
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  // Some filesystems (notably overlayfs) reject directory fsync with EINVAL;
  // there is nothing more we can do for durability there, and failing the
  // publish over it would make the protocol unusable on those mounts.
  if (rc != 0 && saved != EINVAL)
    throw IoError("fsync dir " + dir_path, saved);
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void atomic_publish(const std::string& from, const std::string& to) {
  File::rename(from, to);
  fsync_dir(parent_dir(to));
}

TempDir::TempDir(const std::string& prefix) {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base ? base : "/tmp") + "/" + prefix + ".XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) throw IoError("mkdtemp " + tmpl);
  path_ = buf.data();
}

TempDir::~TempDir() {
  // Remove regular files then the directory; we never create subdirectories.
  if (DIR* d = ::opendir(path_.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((path_ + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(path_.c_str());
}

}  // namespace gstore::io
