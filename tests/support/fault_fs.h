#ifndef DCMT_TESTS_SUPPORT_FAULT_FS_H_
#define DCMT_TESTS_SUPPORT_FAULT_FS_H_

// A core::FileSystem decorator that simulates crashes mid-write, short
// writes and in-flight bit corruption, so the checkpoint and shard code's
// robustness claims are exercised rather than assumed.

#include <cstdint>
#include <memory>
#include <string>

#include "core/io.h"

namespace dcmt {
namespace core {

/// Deterministic fault plan for one FaultInjectingFileSystem. Byte offsets
/// count from the start of each opened file; `first_faulty_open` selects
/// which opened-for-write file the write faults start applying to (0 = every
/// file), so a test can let one checkpoint succeed and fail the next.
struct FaultSpec {
  /// Fail the write that would reach this offset, after writing the bytes
  /// before it (a torn/short write, like a crash mid-`write(2)`). -1 = off.
  std::int64_t fail_write_at = -1;
  /// XOR `flip_mask` into the byte at this offset as it is written
  /// (silent in-flight corruption the CRC must catch). -1 = off.
  std::int64_t flip_write_at = -1;
  std::uint8_t flip_mask = 0x01;
  /// Fail any read that would reach this offset. -1 = off.
  std::int64_t fail_read_at = -1;
  /// Fail Sync() / Rename() calls (write faults' open-count gate applies).
  bool fail_sync = false;
  bool fail_rename = false;
  /// Index of the first opened-for-write file the write/sync/rename faults
  /// apply to (files are counted per FaultInjectingFileSystem instance).
  int first_faulty_open = 0;
};

/// FileSystem decorator that injects the faults described by a FaultSpec
/// while delegating real I/O to a base file system. Not thread-safe: its
/// open counter is a plain int.
class FaultInjectingFileSystem : public FileSystem {
 public:
  /// `base` must outlive this object (defaults to FileSystem::Default()).
  explicit FaultInjectingFileSystem(FaultSpec spec, FileSystem* base = nullptr);
  ~FaultInjectingFileSystem() override;

  std::unique_ptr<FileWriter> OpenForWrite(const std::string& path) override;
  std::unique_ptr<FileReader> OpenForRead(const std::string& path) override;
  bool Rename(const std::string& from, const std::string& to) override;
  bool Remove(const std::string& path) override;
  bool CreateDirectories(const std::string& path) override;
  bool Exists(const std::string& path) override;

  /// Number of files opened for writing so far (to calibrate
  /// `first_faulty_open` in tests).
  int writes_opened() const { return writes_opened_; }

 private:
  bool WriteFaultsActive() const { return writes_opened_ > spec_.first_faulty_open; }

  FaultSpec spec_;
  FileSystem* base_;
  int writes_opened_ = 0;
};

}  // namespace core
}  // namespace dcmt

#endif  // DCMT_TESTS_SUPPORT_FAULT_FS_H_
