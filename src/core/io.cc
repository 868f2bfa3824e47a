#include "core/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

namespace dcmt {
namespace core {
namespace {

/// CRC32 lookup table for the reflected IEEE 802.3 polynomial 0xEDB88320,
/// built once on first use.
const std::uint32_t* Crc32Table() {
  static const std::uint32_t* table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

class PosixFileWriter : public FileWriter {
 public:
  explicit PosixFileWriter(int fd) : fd_(fd) {}
  ~PosixFileWriter() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Write(const void* data, std::size_t size) override {
    if (fd_ < 0) return false;
    const char* p = static_cast<const char*>(data);
    while (size > 0) {
      const ::ssize_t n = ::write(fd_, p, size);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
      size -= static_cast<std::size_t>(n);
    }
    return true;
  }

  bool Sync() override { return fd_ >= 0 && ::fsync(fd_) == 0; }

  bool Close() override {
    if (fd_ < 0) return false;
    const int rc = ::close(fd_);
    fd_ = -1;
    return rc == 0;
  }

 private:
  int fd_;
};

class PosixFileReader : public FileReader {
 public:
  explicit PosixFileReader(int fd) : fd_(fd) {}
  ~PosixFileReader() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Read(void* data, std::size_t size) override {
    if (fd_ < 0) return false;
    char* p = static_cast<char*>(data);
    while (size > 0) {
      const ::ssize_t n = ::read(fd_, p, size);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;  // EOF before `size` bytes
      p += n;
      size -= static_cast<std::size_t>(n);
    }
    return true;
  }

  bool ReadAll(std::string* out) override {
    if (fd_ < 0) return false;
    out->clear();
    char buf[1 << 16];
    for (;;) {
      const ::ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return true;
      out->append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
};

class PosixFileSystem : public FileSystem {
 public:
  std::unique_ptr<FileWriter> OpenForWrite(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return nullptr;
    return std::make_unique<PosixFileWriter>(fd);
  }

  std::unique_ptr<FileReader> OpenForRead(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return nullptr;
    return std::make_unique<PosixFileReader>(fd);
  }

  bool Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) return false;
    // fsync the containing directory so the rename itself is durable.
    const std::size_t slash = to.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : to.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
    return true;
  }

  bool Remove(const std::string& path) override {
    return ::unlink(path.c_str()) == 0 || errno == ENOENT;
  }

  bool CreateDirectories(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    return !ec && std::filesystem::is_directory(path, ec);
  }

  bool Exists(const std::string& path) override {
    struct ::stat st;
    return ::stat(path.c_str(), &st) == 0;
  }
};

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const std::uint32_t* table = Crc32Table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

FileSystem* FileSystem::Default() {
  static PosixFileSystem fs;
  return &fs;
}

bool AtomicWriteFile(FileSystem* fs, const std::string& path,
                     const std::string& contents) {
  if (fs == nullptr) fs = FileSystem::Default();
  const std::string tmp = path + ".tmp";
  std::unique_ptr<FileWriter> w = fs->OpenForWrite(tmp);
  if (w == nullptr) return false;
  const bool written = w->Write(contents.data(), contents.size()) && w->Sync() &&
                       w->Close();
  if (!written || !fs->Rename(tmp, path)) {
    fs->Remove(tmp);
    return false;
  }
  return true;
}

}  // namespace core
}  // namespace dcmt
