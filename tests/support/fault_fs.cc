#include "support/fault_fs.h"

#include <utility>

namespace dcmt {
namespace core {
namespace {

/// Writer decorator applying a FaultSpec's write-side faults.
class FaultyWriter : public FileWriter {
 public:
  FaultyWriter(std::unique_ptr<FileWriter> base, const FaultSpec& spec,
               bool faults_active)
      : base_(std::move(base)), spec_(spec), active_(faults_active) {}

  bool Write(const void* data, std::size_t size) override {
    if (!active_) return base_->Write(data, size);
    const char* p = static_cast<const char*>(data);
    std::string mutated;  // only materialized when a flip lands in this write
    if (spec_.flip_write_at >= 0 && spec_.flip_write_at >= offset_ &&
        spec_.flip_write_at < offset_ + static_cast<std::int64_t>(size)) {
      mutated.assign(p, size);
      mutated[static_cast<std::size_t>(spec_.flip_write_at - offset_)] ^=
          static_cast<char>(spec_.flip_mask);
      p = mutated.data();
    }
    if (spec_.fail_write_at >= 0 &&
        offset_ + static_cast<std::int64_t>(size) > spec_.fail_write_at) {
      // Torn write: persist the prefix up to the fault point, then fail.
      const std::size_t keep = static_cast<std::size_t>(
          spec_.fail_write_at > offset_ ? spec_.fail_write_at - offset_ : 0);
      if (keep > 0) base_->Write(p, keep);
      offset_ += static_cast<std::int64_t>(keep);
      return false;
    }
    offset_ += static_cast<std::int64_t>(size);
    return base_->Write(p, size);
  }

  bool Sync() override {
    if (active_ && spec_.fail_sync) return false;
    return base_->Sync();
  }

  bool Close() override { return base_->Close(); }

 private:
  std::unique_ptr<FileWriter> base_;
  FaultSpec spec_;
  bool active_;
  std::int64_t offset_ = 0;
};

/// Reader decorator applying a FaultSpec's read-side faults.
class FaultyReader : public FileReader {
 public:
  FaultyReader(std::unique_ptr<FileReader> base, const FaultSpec& spec)
      : base_(std::move(base)), spec_(spec) {}

  bool Read(void* data, std::size_t size) override {
    if (spec_.fail_read_at >= 0 &&
        offset_ + static_cast<std::int64_t>(size) > spec_.fail_read_at) {
      return false;
    }
    if (!base_->Read(data, size)) return false;
    offset_ += static_cast<std::int64_t>(size);
    return true;
  }

  bool ReadAll(std::string* out) override {
    if (!base_->ReadAll(out)) return false;
    if (spec_.fail_read_at >= 0 &&
        offset_ + static_cast<std::int64_t>(out->size()) > spec_.fail_read_at) {
      return false;
    }
    offset_ += static_cast<std::int64_t>(out->size());
    return true;
  }

 private:
  std::unique_ptr<FileReader> base_;
  FaultSpec spec_;
  std::int64_t offset_ = 0;
};

}  // namespace

FaultInjectingFileSystem::FaultInjectingFileSystem(FaultSpec spec,
                                                   FileSystem* base)
    : spec_(spec), base_(base != nullptr ? base : FileSystem::Default()) {}

FaultInjectingFileSystem::~FaultInjectingFileSystem() = default;

std::unique_ptr<FileWriter> FaultInjectingFileSystem::OpenForWrite(
    const std::string& path) {
  ++writes_opened_;
  std::unique_ptr<FileWriter> base = base_->OpenForWrite(path);
  if (base == nullptr) return nullptr;
  return std::make_unique<FaultyWriter>(std::move(base), spec_,
                                        WriteFaultsActive());
}

std::unique_ptr<FileReader> FaultInjectingFileSystem::OpenForRead(
    const std::string& path) {
  std::unique_ptr<FileReader> base = base_->OpenForRead(path);
  if (base == nullptr) return nullptr;
  return std::make_unique<FaultyReader>(std::move(base), spec_);
}

bool FaultInjectingFileSystem::Rename(const std::string& from,
                                      const std::string& to) {
  if (spec_.fail_rename && WriteFaultsActive()) return false;
  return base_->Rename(from, to);
}

bool FaultInjectingFileSystem::Remove(const std::string& path) {
  return base_->Remove(path);
}

bool FaultInjectingFileSystem::CreateDirectories(const std::string& path) {
  return base_->CreateDirectories(path);
}

bool FaultInjectingFileSystem::Exists(const std::string& path) {
  return base_->Exists(path);
}

}  // namespace core
}  // namespace dcmt
