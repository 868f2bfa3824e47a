#ifndef DCMT_TESTS_SUPPORT_BYTE_FLIP_H_
#define DCMT_TESTS_SUPPORT_BYTE_FLIP_H_

// Header-only bit-flip sweep over a shard directory, shared by the shard and
// continual tests. It uses gtest assertions, so only gtest binaries include
// it.

#include <cstddef>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "data/shard.h"
#include "data/stream.h"

namespace dcmt {

/// Flips 0x01 into each byte of the file at `path` in turn, calling
/// `check(offset)` with the mutated file in place, then restores the file.
inline void ForEachByteFlip(const std::string& path,
                            const std::function<void(std::size_t)>& check) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  const std::string image((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  auto write = [&path](const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    ASSERT_TRUE(out.good()) << path;
  };
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::string mutated = image;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    write(mutated);
    check(i);
  }
  write(image);
}

/// Reject-or-exact: a single flipped bit is never bit-exact, so every offset
/// of shard 0 and of the manifest under `dir` (magic, version, type, length,
/// payload, CRC) must be rejected by ReadShard / ReadManifest. `dataset` is
/// open on `dir`; both files are restored, and shard 0 reads again.
inline void ExpectEveryShardAndManifestFlipRejected(
    const data::StreamingDataset& dataset, const std::string& dir) {
  data::ShardColumns rows;
  std::string error;
  ASSERT_TRUE(dataset.ReadShard(0, &rows, &error)) << error;
  ForEachByteFlip(dir + "/" + data::ShardFileName(0), [&](std::size_t i) {
    error.clear();
    EXPECT_FALSE(dataset.ReadShard(0, &rows, &error))
        << "flip at shard byte " << i << " decoded anyway";
  });
  ASSERT_TRUE(dataset.ReadShard(0, &rows, &error)) << error;

  ForEachByteFlip(dir + "/" + std::string(data::kManifestFileName),
                  [&](std::size_t i) {
                    data::ShardManifest manifest;
                    error.clear();
                    EXPECT_FALSE(
                        data::ReadManifest(nullptr, dir, &manifest, &error))
                        << "flip at manifest byte " << i << " decoded anyway";
                  });
}

}  // namespace dcmt

#endif  // DCMT_TESTS_SUPPORT_BYTE_FLIP_H_
