#ifndef DCMT_CORE_IO_H_
#define DCMT_CORE_IO_H_

// Small file-I/O seam under the checkpoint and shard stacks. Production code
// goes through FileSystem::Default() (POSIX files with real fsync); tests
// swap in a fault-injecting implementation to simulate crashes mid-write,
// short writes and in-flight bit corruption.

#include <cstdint>
#include <memory>
#include <string>

namespace dcmt {
namespace core {

/// Incremental CRC32 (IEEE 802.3 polynomial, the zlib/PNG one). Feed the
/// previous return value back as `seed` to checksum data in pieces;
/// Crc32("123456789") == 0xCBF43926.
std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// Sequential sink for one file being written.
class FileWriter {
 public:
  virtual ~FileWriter() = default;

  /// Appends `size` bytes; false on failure (the file may hold a prefix).
  virtual bool Write(const void* data, std::size_t size) = 0;

  /// Flushes written data to stable storage (fsync).
  virtual bool Sync() = 0;

  /// Closes the file; no further writes. Returns false if the close itself
  /// fails (delayed write errors surface here).
  virtual bool Close() = 0;
};

/// Sequential source for one file being read.
class FileReader {
 public:
  virtual ~FileReader() = default;

  /// Reads exactly `size` bytes; false on short read or I/O error.
  virtual bool Read(void* data, std::size_t size) = 0;

  /// Reads the remainder of the file into `*out` (replacing its contents).
  virtual bool ReadAll(std::string* out) = 0;
};

/// Factory + directory operations. The default instance is process-wide and
/// backed by POSIX calls.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Opens `path` for writing (truncates). Null on failure.
  virtual std::unique_ptr<FileWriter> OpenForWrite(const std::string& path) = 0;

  /// Opens `path` for reading. Null on failure.
  virtual std::unique_ptr<FileReader> OpenForRead(const std::string& path) = 0;

  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual bool Rename(const std::string& from, const std::string& to) = 0;

  /// Deletes a file; missing files are not an error.
  virtual bool Remove(const std::string& path) = 0;

  /// Creates a directory and any missing parents.
  virtual bool CreateDirectories(const std::string& path) = 0;

  /// True if `path` exists.
  virtual bool Exists(const std::string& path) = 0;

  /// The process-wide POSIX-backed instance.
  static FileSystem* Default();
};

/// Writes `contents` to `path` crash-safely: the bytes go to `path + ".tmp"`,
/// are fsynced, and the tmp file is renamed over `path` only once durable.
/// A crash (or injected fault) at any point leaves either the old complete
/// file or no file — never a torn one. The tmp file is removed on failure.
bool AtomicWriteFile(FileSystem* fs, const std::string& path,
                     const std::string& contents);

}  // namespace core
}  // namespace dcmt

#endif  // DCMT_CORE_IO_H_
