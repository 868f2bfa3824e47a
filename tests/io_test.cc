// Tests for the core I/O seam: CRC32 correctness, the atomic write
// protocol's crash behaviour, and the fault-injecting file system the
// checkpoint robustness tests build on.

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/io.h"
#include "support/fault_fs.h"

namespace dcmt {
namespace core {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical IEEE 802.3 check value.
  const std::string data = "123456789";
  EXPECT_EQ(Crc32(data.data(), data.size()), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(Crc32(nullptr, 0), 0u); }

TEST(Crc32Test, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t one_shot = Crc32(data.data(), data.size());
  std::uint32_t incremental = Crc32(data.data(), 10);
  incremental = Crc32(data.data() + 10, data.size() - 10, incremental);
  EXPECT_EQ(incremental, one_shot);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "checkpoint payload bytes";
  const std::uint32_t before = Crc32(data.data(), data.size());
  data[7] ^= 0x01;
  EXPECT_NE(Crc32(data.data(), data.size()), before);
}

TEST(FileSystemTest, WriteReadRoundTrip) {
  FileSystem* fs = FileSystem::Default();
  const std::string path = TempPath("io_roundtrip.bin");
  auto writer = fs->OpenForWrite(path);
  ASSERT_NE(writer, nullptr);
  const std::string payload = "hello checkpoint";
  ASSERT_TRUE(writer->Write(payload.data(), payload.size()));
  ASSERT_TRUE(writer->Sync());
  ASSERT_TRUE(writer->Close());

  auto reader = fs->OpenForRead(path);
  ASSERT_NE(reader, nullptr);
  std::string read_back;
  ASSERT_TRUE(reader->ReadAll(&read_back));
  EXPECT_EQ(read_back, payload);
  fs->Remove(path);
}

TEST(FileSystemTest, ExactReadFailsAtEof) {
  FileSystem* fs = FileSystem::Default();
  const std::string path = TempPath("io_short.bin");
  std::ofstream(path, std::ios::binary) << "abc";
  auto reader = fs->OpenForRead(path);
  ASSERT_NE(reader, nullptr);
  char buf[8];
  EXPECT_FALSE(reader->Read(buf, sizeof(buf)));  // only 3 bytes exist
  fs->Remove(path);
}

TEST(FileSystemTest, CreateDirectoriesAndExists) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = TempPath("io_nested/a/b");
  EXPECT_TRUE(fs->CreateDirectories(dir));
  EXPECT_TRUE(fs->Exists(dir));
  EXPECT_FALSE(fs->Exists(dir + "/missing"));
}

TEST(AtomicWriteTest, WritesContentsAndLeavesNoTmp) {
  FileSystem* fs = FileSystem::Default();
  const std::string path = TempPath("atomic_ok.bin");
  ASSERT_TRUE(AtomicWriteFile(fs, path, "new contents"));
  EXPECT_EQ(ReadFileOrDie(path), "new contents");
  EXPECT_FALSE(fs->Exists(path + ".tmp"));
  fs->Remove(path);
}

TEST(AtomicWriteTest, TornWriteKeepsPreviousFileIntact) {
  const std::string path = TempPath("atomic_torn.bin");
  ASSERT_TRUE(AtomicWriteFile(FileSystem::Default(), path, "old complete file"));

  FaultSpec spec;
  spec.fail_write_at = 4;  // crash 4 bytes into the replacement
  FaultInjectingFileSystem faulty(spec);
  EXPECT_FALSE(AtomicWriteFile(&faulty, path, "replacement that dies"));
  // The old file must be byte-identical and the torn tmp cleaned up.
  EXPECT_EQ(ReadFileOrDie(path), "old complete file");
  EXPECT_FALSE(FileSystem::Default()->Exists(path + ".tmp"));
  FileSystem::Default()->Remove(path);
}

TEST(AtomicWriteTest, FailedRenameKeepsPreviousFileIntact) {
  const std::string path = TempPath("atomic_rename.bin");
  ASSERT_TRUE(AtomicWriteFile(FileSystem::Default(), path, "old complete file"));

  FaultSpec spec;
  spec.fail_rename = true;
  FaultInjectingFileSystem faulty(spec);
  EXPECT_FALSE(AtomicWriteFile(&faulty, path, "never visible"));
  EXPECT_EQ(ReadFileOrDie(path), "old complete file");
  EXPECT_FALSE(FileSystem::Default()->Exists(path + ".tmp"));
  FileSystem::Default()->Remove(path);
}

TEST(FaultInjectionTest, TornWritePersistsExactPrefix) {
  const std::string path = TempPath("fault_torn.bin");
  FaultSpec spec;
  spec.fail_write_at = 40;
  FaultInjectingFileSystem faulty(spec);
  auto writer = faulty.OpenForWrite(path);
  ASSERT_NE(writer, nullptr);
  const std::string block(100, 'x');
  EXPECT_FALSE(writer->Write(block.data(), block.size()));
  writer->Close();
  EXPECT_EQ(ReadFileOrDie(path).size(), 40u);  // short write, then failure
  FileSystem::Default()->Remove(path);
}

TEST(FaultInjectionTest, TornWriteSpansMultipleWrites) {
  const std::string path = TempPath("fault_torn_multi.bin");
  FaultSpec spec;
  spec.fail_write_at = 15;
  FaultInjectingFileSystem faulty(spec);
  auto writer = faulty.OpenForWrite(path);
  ASSERT_NE(writer, nullptr);
  const std::string block(10, 'a');
  EXPECT_TRUE(writer->Write(block.data(), block.size()));   // bytes [0,10)
  EXPECT_FALSE(writer->Write(block.data(), block.size()));  // dies at 15
  writer->Close();
  EXPECT_EQ(ReadFileOrDie(path).size(), 15u);
  FileSystem::Default()->Remove(path);
}

TEST(FaultInjectionTest, BitFlipCorruptsExactlyOneByte) {
  const std::string path = TempPath("fault_flip.bin");
  FaultSpec spec;
  spec.flip_write_at = 3;
  spec.flip_mask = 0x80;
  FaultInjectingFileSystem faulty(spec);
  auto writer = faulty.OpenForWrite(path);
  ASSERT_NE(writer, nullptr);
  const std::string block = "0123456789";
  EXPECT_TRUE(writer->Write(block.data(), block.size()));
  EXPECT_TRUE(writer->Close());
  const std::string written = ReadFileOrDie(path);
  ASSERT_EQ(written.size(), block.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (i == 3) {
      EXPECT_EQ(written[i], static_cast<char>(block[i] ^ 0x80));
    } else {
      EXPECT_EQ(written[i], block[i]);
    }
  }
  FileSystem::Default()->Remove(path);
}

TEST(FaultInjectionTest, FirstFaultyOpenSparesEarlierFiles) {
  const std::string ok_path = TempPath("fault_open0.bin");
  const std::string bad_path = TempPath("fault_open1.bin");
  FaultSpec spec;
  spec.fail_write_at = 0;
  spec.first_faulty_open = 1;  // first opened file is clean, second faults
  FaultInjectingFileSystem faulty(spec);

  auto w0 = faulty.OpenForWrite(ok_path);
  ASSERT_NE(w0, nullptr);
  EXPECT_TRUE(w0->Write("fine", 4));
  EXPECT_TRUE(w0->Close());

  auto w1 = faulty.OpenForWrite(bad_path);
  ASSERT_NE(w1, nullptr);
  EXPECT_FALSE(w1->Write("dies", 4));
  w1->Close();

  EXPECT_EQ(ReadFileOrDie(ok_path), "fine");
  EXPECT_EQ(ReadFileOrDie(bad_path), "");
  EXPECT_EQ(faulty.writes_opened(), 2);
  FileSystem::Default()->Remove(ok_path);
  FileSystem::Default()->Remove(bad_path);
}

TEST(FaultInjectionTest, ReadFaultFails) {
  const std::string path = TempPath("fault_read.bin");
  std::ofstream(path, std::ios::binary) << std::string(64, 'r');
  FaultSpec spec;
  spec.fail_read_at = 32;
  FaultInjectingFileSystem faulty(spec);
  auto reader = faulty.OpenForRead(path);
  ASSERT_NE(reader, nullptr);
  std::string all;
  EXPECT_FALSE(reader->ReadAll(&all));
  FileSystem::Default()->Remove(path);
}

TEST(FaultInjectionTest, FailedSyncReported) {
  const std::string path = TempPath("fault_sync.bin");
  FaultSpec spec;
  spec.fail_sync = true;
  FaultInjectingFileSystem faulty(spec);
  auto writer = faulty.OpenForWrite(path);
  ASSERT_NE(writer, nullptr);
  EXPECT_TRUE(writer->Write("data", 4));
  EXPECT_FALSE(writer->Sync());
  writer->Close();
  FileSystem::Default()->Remove(path);
}

}  // namespace
}  // namespace core
}  // namespace dcmt
