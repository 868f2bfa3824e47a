#ifndef DCMT_DATA_SHARD_H_
#define DCMT_DATA_SHARD_H_

// Write-once sharded columnar log format for out-of-core exposure logs
// (DESIGN.md §15). A dataset directory holds:
//
//   manifest.shm     magic "DCMTSHM1" + v2 CRC-framed records:
//                      schema record  (field names + vocab sizes + fingerprint)
//                      shards record  (per shard: file name, row count,
//                                      click/conversion/oracle label sums)
//   shard-00000.shd  magic "DCMTSHD1" + v2 CRC-framed records:
//                      header record  (schema fingerprint, shard index, rows)
//                      rows record    (columnar: per-field id columns, label
//                                      byte columns, propensity float columns)
//                      footer record  (row count + label sums + fingerprint,
//                                      repeated for cheap cross-validation)
//   shard-00001.shd  ...
//
// Every file is written through core::AtomicWriteFile, so a torn write
// leaves no partial shard on disk. Readers fail closed: any framing damage,
// CRC mismatch, fingerprint mismatch, or disagreement between the manifest,
// the shard header, the decoded columns and the footer sums rejects the
// shard outright — rows are never silently dropped or reordered.

#include <cstdint>
#include <string>
#include <vector>

#include "core/io.h"
#include "data/example.h"
#include "data/schema.h"

namespace dcmt {
namespace data {

inline constexpr char kShardMagic[8] = {'D', 'C', 'M', 'T', 'S', 'H', 'D', '1'};
inline constexpr char kShardManifestMagic[8] = {'D', 'C', 'M', 'T', 'S', 'H', 'M', '1'};
/// Shard files reuse the v2 CRC-framed record container (core::record).
/// Container version 3 appended the `convert_lag_days` row column (delayed
/// feedback, DESIGN.md §17); version-2 files are rejected rather than
/// decoded with a silently-zeroed lag column.
inline constexpr std::uint32_t kShardFormatVersion = 3;

/// Record types inside a shard file.
enum ShardRecordType : std::uint32_t {
  kShardEnd = 0,
  kShardHeader = 1,  // schema fingerprint, shard index, row count
  kShardRows = 2,    // the columnar row data
  kShardFooter = 3,  // row count + label sums + fingerprint (validation)
};

/// Record types inside a manifest file.
enum ManifestRecordType : std::uint32_t {
  kManifestEnd = 0,
  kManifestSchema = 1,  // feature schema + fingerprint
  kManifestShards = 2,  // shard table (file names, row counts, label sums)
};

/// Stable 64-bit fingerprint of a feature schema (field names + vocab
/// sizes). Stored in the manifest and every shard header/footer so a shard
/// can never be decoded against the wrong schema.
std::uint64_t FingerprintSchema(const FeatureSchema& schema);

/// One shard's entry in the manifest. The label sums double as a cheap
/// whole-shard checksum: readers recompute them from the decoded columns.
struct ShardInfo {
  std::string file;  // name relative to the dataset directory
  std::int64_t rows = 0;
  std::int64_t clicks = 0;
  std::int64_t conversions = 0;
  std::int64_t oracle_conversions = 0;
};

/// The manifest: schema + shard table. This is what makes dataset sizing
/// manifest-driven — total_rows() is known without opening any shard, so
/// batchers can size epochs up-front even when the final shard is short.
struct ShardManifest {
  FeatureSchema schema;
  std::uint64_t schema_fingerprint = 0;
  std::vector<ShardInfo> shards;

  std::int64_t total_rows() const {
    std::int64_t n = 0;
    for (const ShardInfo& s : shards) n += s.rows;
    return n;
  }
  /// Row count per shard, in shard order (the Batcher shard plan).
  std::vector<std::int64_t> ShardRowCounts() const;
  /// Prefix sums of ShardRowCounts(); size() == shards.size() + 1.
  std::vector<std::int64_t> ShardRowOffsets() const;
};

/// Conventional file names inside a dataset directory.
std::string ShardFileName(int shard_index);
inline constexpr char kManifestFileName[] = "manifest.shm";

struct ShardWriterConfig {
  /// Rows buffered per shard before it is flushed to disk. The default keeps
  /// a shard's decoded form around 10 MB at this schema's row width.
  std::int64_t rows_per_shard = 1 << 18;
  /// nullptr = real file system; tests pass a FaultInjectingFileSystem.
  core::FileSystem* fs = nullptr;
};

/// Streams examples into `dir` as numbered shard files plus a manifest.
/// Append buffers rows and flushes a full shard as soon as rows_per_shard is
/// reached, so peak memory is one shard regardless of dataset size. Finish()
/// flushes the final (possibly short) shard and writes the manifest last —
/// a directory without a valid manifest is never a readable dataset, which
/// makes interrupted generation runs fail closed. After any I/O error the
/// writer latches !ok() and further Appends are dropped.
class ShardWriter {
 public:
  ShardWriter(std::string dir, FeatureSchema schema, ShardWriterConfig config = {});

  void Append(const Example& example);
  /// Flushes pending rows and writes the manifest. Returns ok().
  bool Finish();

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  /// Valid after a successful Finish().
  const ShardManifest& manifest() const { return manifest_; }

 private:
  void FlushShard();

  std::string dir_;
  ShardWriterConfig config_;
  core::FileSystem* fs_;
  ShardManifest manifest_;
  std::vector<Example> pending_;
  bool finished_ = false;
  bool ok_ = true;
  std::string error_;
};

/// Encodes one shard's rows as a complete shard-file image (used by the
/// writer; exposed for tests and benchmarks).
std::string EncodeShardImage(const FeatureSchema& schema, int shard_index,
                             const std::vector<Example>& rows);

/// Decodes and fully validates one shard file against its manifest entry:
/// container framing + CRCs, header/footer fingerprints and counts, column
/// lengths, every value (ids inside their field's vocab, labels in {0, 1},
/// no conversion without a click), and the footer/manifest label sums
/// recomputed from the decoded rows. On any mismatch returns false with
/// `*error` naming the failure ("<path>: <column>: <what> (row r)" for a bad
/// value) and `*rows` cleared. Thread-safe for concurrent calls when `fs` is
/// (the default PosixFileSystem is stateless).
bool ReadShardFile(core::FileSystem* fs, const std::string& path,
                   const ShardManifest& manifest, int shard_index,
                   std::vector<Example>* rows, std::string* error);

/// Writes / reads the manifest file inside `dir` (atomically on write).
bool WriteManifest(core::FileSystem* fs, const std::string& dir,
                   const ShardManifest& manifest, std::string* error);
bool ReadManifest(core::FileSystem* fs, const std::string& dir,
                  ShardManifest* manifest, std::string* error);

}  // namespace data
}  // namespace dcmt

#endif  // DCMT_DATA_SHARD_H_
