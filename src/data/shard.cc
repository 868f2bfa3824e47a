#include "data/shard.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "core/record.h"

namespace dcmt {
namespace data {
namespace {

std::string JoinPath(const std::string& dir, const std::string& file) {
  if (dir.empty()) return file;
  if (dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

// FNV-1a over a byte stream, with field boundaries mixed in explicitly so
// {"ab","c"} and {"a","bc"} fingerprint differently.
class Fnv64 {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct ShardLabelSums {
  std::int64_t clicks = 0;
  std::int64_t conversions = 0;
  std::int64_t oracle_conversions = 0;
};

ShardLabelSums SumLabels(const std::vector<Example>& rows) {
  ShardLabelSums sums;
  for (const Example& e : rows) {
    sums.clicks += e.click;
    sums.conversions += e.conversion;
    sums.oracle_conversions += e.oracle_conversion;
  }
  return sums;
}

bool ReadFileImage(core::FileSystem* fs, const std::string& path,
                   std::string* image, std::string* error) {
  if (fs == nullptr) fs = core::FileSystem::Default();
  std::unique_ptr<core::FileReader> reader = fs->OpenForRead(path);
  if (reader == nullptr) {
    *error = path + ": cannot open";
    return false;
  }
  if (!reader->ReadAll(image)) {
    *error = path + ": read failed";
    return false;
  }
  return true;
}

void EncodeSchema(const FeatureSchema& schema, core::PayloadWriter* out) {
  out->U32(static_cast<std::uint32_t>(schema.deep_fields.size()));
  for (const FieldSpec& f : schema.deep_fields) {
    out->Str(f.name);
    out->I32(f.vocab_size);
  }
  out->U32(static_cast<std::uint32_t>(schema.wide_fields.size()));
  for (const FieldSpec& f : schema.wide_fields) {
    out->Str(f.name);
    out->I32(f.vocab_size);
  }
}

/// On a framing error leaves `*what` empty; on a field whose vocab size is
/// not positive sets it to "<column>: <what>".
bool DecodeSchema(core::PayloadReader* in, FeatureSchema* schema,
                  std::string* what) {
  const auto decode_fields = [&](const char* kind,
                                 std::vector<FieldSpec>* fields) {
    std::uint32_t count = 0;
    if (!in->U32(&count) || count > 4096) return false;
    fields->resize(count);
    for (FieldSpec& f : *fields) {
      if (!in->Str(&f.name) || !in->I32(&f.vocab_size)) return false;
      if (f.vocab_size <= 0) {
        *what = std::string(kind) + ":" + f.name + ": vocab size " +
                std::to_string(f.vocab_size) + " is not positive";
        return false;
      }
    }
    return true;
  };
  return decode_fields("deep", &schema->deep_fields) &&
         decode_fields("wide", &schema->wide_fields);
}

}  // namespace

std::uint64_t FingerprintSchema(const FeatureSchema& schema) {
  Fnv64 h;
  h.U64(schema.deep_fields.size());
  for (const FieldSpec& f : schema.deep_fields) {
    h.Str(f.name);
    h.U64(static_cast<std::uint64_t>(f.vocab_size));
  }
  h.U64(schema.wide_fields.size());
  for (const FieldSpec& f : schema.wide_fields) {
    h.Str(f.name);
    h.U64(static_cast<std::uint64_t>(f.vocab_size));
  }
  return h.hash();
}

std::vector<std::int64_t> ShardManifest::ShardRowCounts() const {
  std::vector<std::int64_t> counts;
  counts.reserve(shards.size());
  for (const ShardInfo& s : shards) counts.push_back(s.rows);
  return counts;
}

std::vector<std::int64_t> ShardManifest::ShardRowOffsets() const {
  std::vector<std::int64_t> offsets(shards.size() + 1, 0);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    offsets[i + 1] = offsets[i] + shards[i].rows;
  }
  return offsets;
}

std::string ShardFileName(int shard_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%05d.shd", shard_index);
  return buf;
}

// --- Shard encoding --------------------------------------------------------

std::string EncodeShardImage(const FeatureSchema& schema, int shard_index,
                             const std::vector<Example>& rows) {
  const std::uint64_t fingerprint = FingerprintSchema(schema);
  const std::int64_t n = static_cast<std::int64_t>(rows.size());
  const std::size_t n_deep = schema.deep_fields.size();
  const std::size_t n_wide = schema.wide_fields.size();

  core::PayloadWriter header;
  header.U64(fingerprint);
  header.U32(static_cast<std::uint32_t>(shard_index));
  header.I64(n);

  // Columnar transpose: one id column per field, then the label byte
  // columns, propensity float columns, and entity index columns.
  core::PayloadWriter body;
  body.I64(n);
  body.U32(static_cast<std::uint32_t>(n_deep));
  body.U32(static_cast<std::uint32_t>(n_wide));
  std::vector<std::int32_t> ids(rows.size());
  for (std::size_t f = 0; f < n_deep; ++f) {
    for (std::size_t r = 0; r < rows.size(); ++r) ids[r] = rows[r].deep_ids[f];
    body.I32Vec(ids);
  }
  for (std::size_t f = 0; f < n_wide; ++f) {
    for (std::size_t r = 0; r < rows.size(); ++r) ids[r] = rows[r].wide_ids[f];
    body.I32Vec(ids);
  }
  std::vector<std::uint8_t> bytes(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) bytes[r] = rows[r].click;
  body.U8Vec(bytes);
  for (std::size_t r = 0; r < rows.size(); ++r) bytes[r] = rows[r].conversion;
  body.U8Vec(bytes);
  for (std::size_t r = 0; r < rows.size(); ++r) bytes[r] = rows[r].oracle_conversion;
  body.U8Vec(bytes);
  std::vector<float> floats(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) floats[r] = rows[r].true_ctr;
  body.F32Vec(floats);
  for (std::size_t r = 0; r < rows.size(); ++r) floats[r] = rows[r].true_cvr;
  body.F32Vec(floats);
  for (std::size_t r = 0; r < rows.size(); ++r) ids[r] = rows[r].user_index;
  body.I32Vec(ids);
  for (std::size_t r = 0; r < rows.size(); ++r) ids[r] = rows[r].item_index;
  body.I32Vec(ids);
  for (std::size_t r = 0; r < rows.size(); ++r) ids[r] = rows[r].convert_lag_days;
  body.I32Vec(ids);

  const ShardLabelSums sums = SumLabels(rows);
  core::PayloadWriter footer;
  footer.I64(n);
  footer.I64(sums.clicks);
  footer.I64(sums.conversions);
  footer.I64(sums.oracle_conversions);
  footer.U64(fingerprint);

  std::string image = core::BeginRecordImage(kShardMagic, kShardFormatVersion);
  core::AppendRecord(&image, kShardHeader, header.data());
  core::AppendRecord(&image, kShardRows, body.data());
  core::AppendRecord(&image, kShardFooter, footer.data());
  core::AppendRecord(&image, kShardEnd, {});
  return image;
}

bool ReadShardFile(core::FileSystem* fs, const std::string& path,
                   const ShardManifest& manifest, int shard_index,
                   std::vector<Example>* rows, std::string* error) {
  rows->clear();
  *error = {};
  if (shard_index < 0 ||
      static_cast<std::size_t>(shard_index) >= manifest.shards.size()) {
    *error = path + ": shard index out of manifest range";
    return false;
  }
  const ShardInfo& info = manifest.shards[static_cast<std::size_t>(shard_index)];

  std::string image;
  if (!ReadFileImage(fs, path, &image, error)) return false;

  std::vector<core::RecordView> records;
  if (!core::ParseRecordImage(image, kShardMagic, kShardFormatVersion, &records)) {
    *error = path + ": malformed shard container (bad magic, framing or CRC)";
    return false;
  }
  if (records.size() != 3 || records[0].type != kShardHeader ||
      records[1].type != kShardRows || records[2].type != kShardFooter) {
    *error = path + ": unexpected shard record layout";
    return false;
  }

  // Header: the shard must belong to this manifest, at this position.
  core::PayloadReader header(records[0].payload);
  std::uint64_t fingerprint = 0;
  std::uint32_t stored_index = 0;
  std::int64_t header_rows = 0;
  if (!header.U64(&fingerprint) || !header.U32(&stored_index) ||
      !header.I64(&header_rows) || !header.AtEnd()) {
    *error = path + ": malformed shard header";
    return false;
  }
  if (fingerprint != manifest.schema_fingerprint) {
    *error = path + ": schema fingerprint mismatch (wrong dataset?)";
    return false;
  }
  if (stored_index != static_cast<std::uint32_t>(shard_index)) {
    *error = path + ": shard index mismatch (file moved or renamed?)";
    return false;
  }
  if (header_rows != info.rows) {
    *error = path + ": header row count disagrees with manifest";
    return false;
  }

  // Body: decode the columns and re-transpose into Examples.
  const std::size_t n_deep = manifest.schema.deep_fields.size();
  const std::size_t n_wide = manifest.schema.wide_fields.size();
  core::PayloadReader body(records[1].payload);
  std::int64_t n = 0;
  std::uint32_t deep_count = 0, wide_count = 0;
  if (!body.I64(&n) || !body.U32(&deep_count) || !body.U32(&wide_count)) {
    *error = path + ": malformed shard body";
    return false;
  }
  if (n != info.rows || deep_count != n_deep || wide_count != n_wide) {
    *error = path + ": shard body shape disagrees with manifest schema";
    return false;
  }
  const std::size_t rows_n = static_cast<std::size_t>(n);
  rows->resize(rows_n);
  for (Example& e : *rows) {
    e.deep_ids.resize(n_deep);
    e.wide_ids.resize(n_wide);
  }
  // Values are checked as their column is decoded, the way ReadCsv checks
  // its cells: a CRC only proves the bytes are the ones written, and an
  // out-of-vocab id or a label outside {0, 1} would abort training later.
  const auto reject = [&](const std::string& column, std::size_t r,
                          const std::string& what) {
    *error = path + ": " + column + ": " + what + " (row " +
             std::to_string(r) + ")";
    rows->clear();
    return false;
  };
  std::vector<std::int32_t> ids;
  const auto read_ids = [&](const char* kind, const FieldSpec& field,
                            std::size_t f, std::vector<int> Example::*column) {
    if (!body.I32Vec(&ids) || ids.size() != rows_n) {
      *error = path + ": truncated " + kind + " id column";
      rows->clear();
      return false;
    }
    for (std::size_t r = 0; r < rows_n; ++r) {
      if (ids[r] < 0 || ids[r] >= field.vocab_size) {
        return reject(std::string(kind) + ":" + field.name, r,
                      "id " + std::to_string(ids[r]) + " is outside [0, " +
                          std::to_string(field.vocab_size) + ")");
      }
      ((*rows)[r].*column)[f] = ids[r];
    }
    return true;
  };
  for (std::size_t f = 0; f < n_deep; ++f) {
    if (!read_ids("deep", manifest.schema.deep_fields[f], f, &Example::deep_ids)) {
      return false;
    }
  }
  for (std::size_t f = 0; f < n_wide; ++f) {
    if (!read_ids("wide", manifest.schema.wide_fields[f], f, &Example::wide_ids)) {
      return false;
    }
  }
  std::vector<std::uint8_t> bytes;
  std::vector<float> floats;
  const auto fail_body = [&]() {
    *error = path + ": truncated shard column";
    rows->clear();
    return false;
  };
  // Click decodes before conversion, so the conversion loop can check that
  // every conversion has its click.
  const auto read_labels = [&](const char* column, std::uint8_t Example::*label) {
    if (!body.U8Vec(&bytes) || bytes.size() != rows_n) return fail_body();
    for (std::size_t r = 0; r < rows_n; ++r) {
      Example& e = (*rows)[r];
      if (bytes[r] > 1) {
        return reject(column, r, "label " + std::to_string(bytes[r]) +
                                     " is not 0 or 1");
      }
      if (label == &Example::conversion && bytes[r] == 1 && e.click == 0) {
        return reject(column, r, "conversion without a click");
      }
      e.*label = bytes[r];
    }
    return true;
  };
  if (!read_labels("click", &Example::click) ||
      !read_labels("conversion", &Example::conversion) ||
      !read_labels("oracle_conversion", &Example::oracle_conversion)) {
    return false;
  }
  if (!body.F32Vec(&floats) || floats.size() != rows_n) return fail_body();
  for (std::size_t r = 0; r < rows_n; ++r) (*rows)[r].true_ctr = floats[r];
  if (!body.F32Vec(&floats) || floats.size() != rows_n) return fail_body();
  for (std::size_t r = 0; r < rows_n; ++r) (*rows)[r].true_cvr = floats[r];
  if (!body.I32Vec(&ids) || ids.size() != rows_n) return fail_body();
  for (std::size_t r = 0; r < rows_n; ++r) (*rows)[r].user_index = ids[r];
  if (!body.I32Vec(&ids) || ids.size() != rows_n) return fail_body();
  for (std::size_t r = 0; r < rows_n; ++r) (*rows)[r].item_index = ids[r];
  if (!body.I32Vec(&ids) || ids.size() != rows_n) return fail_body();
  for (std::size_t r = 0; r < rows_n; ++r) (*rows)[r].convert_lag_days = ids[r];
  if (!body.AtEnd()) {
    *error = path + ": trailing bytes in shard body";
    rows->clear();
    return false;
  }

  // Footer: counts and sums must agree with the decoded rows AND with the
  // manifest entry, so a stale manifest or a swapped shard is caught here.
  core::PayloadReader footer(records[2].payload);
  std::int64_t footer_rows = 0, clicks = 0, conversions = 0, oracle = 0;
  std::uint64_t footer_fingerprint = 0;
  if (!footer.I64(&footer_rows) || !footer.I64(&clicks) ||
      !footer.I64(&conversions) || !footer.I64(&oracle) ||
      !footer.U64(&footer_fingerprint) || !footer.AtEnd()) {
    *error = path + ": malformed shard footer";
    rows->clear();
    return false;
  }
  const ShardLabelSums sums = SumLabels(*rows);
  if (footer_rows != n || footer_fingerprint != fingerprint ||
      sums.clicks != clicks || sums.conversions != conversions ||
      sums.oracle_conversions != oracle) {
    *error = path + ": footer validation failed (rows or label sums)";
    rows->clear();
    return false;
  }
  if (clicks != info.clicks || conversions != info.conversions ||
      oracle != info.oracle_conversions) {
    *error = path + ": label sums disagree with manifest";
    rows->clear();
    return false;
  }
  return true;
}

// --- Manifest --------------------------------------------------------------

bool WriteManifest(core::FileSystem* fs, const std::string& dir,
                   const ShardManifest& manifest, std::string* error) {
  core::PayloadWriter schema_payload;
  EncodeSchema(manifest.schema, &schema_payload);
  schema_payload.U64(manifest.schema_fingerprint);

  core::PayloadWriter shards_payload;
  shards_payload.U64(manifest.shards.size());
  for (const ShardInfo& s : manifest.shards) {
    shards_payload.Str(s.file);
    shards_payload.I64(s.rows);
    shards_payload.I64(s.clicks);
    shards_payload.I64(s.conversions);
    shards_payload.I64(s.oracle_conversions);
  }

  std::string image = core::BeginRecordImage(kShardManifestMagic, kShardFormatVersion);
  core::AppendRecord(&image, kManifestSchema, schema_payload.data());
  core::AppendRecord(&image, kManifestShards, shards_payload.data());
  core::AppendRecord(&image, kManifestEnd, {});
  const std::string path = JoinPath(dir, kManifestFileName);
  if (!core::AtomicWriteFile(fs, path, image)) {
    *error = path + ": atomic write failed";
    return false;
  }
  return true;
}

bool ReadManifest(core::FileSystem* fs, const std::string& dir,
                  ShardManifest* manifest, std::string* error) {
  *manifest = {};
  const std::string path = JoinPath(dir, kManifestFileName);
  std::string image;
  if (!ReadFileImage(fs, path, &image, error)) return false;

  std::vector<core::RecordView> records;
  if (!core::ParseRecordImage(image, kShardManifestMagic, kShardFormatVersion,
                              &records)) {
    *error = path + ": malformed manifest container (bad magic, framing or CRC)";
    return false;
  }
  if (records.size() != 2 || records[0].type != kManifestSchema ||
      records[1].type != kManifestShards) {
    *error = path + ": unexpected manifest record layout";
    return false;
  }

  core::PayloadReader schema_reader(records[0].payload);
  std::string what;
  if (!DecodeSchema(&schema_reader, &manifest->schema, &what) ||
      !schema_reader.U64(&manifest->schema_fingerprint) ||
      !schema_reader.AtEnd()) {
    *error = path + ": " +
             (what.empty() ? "malformed manifest schema record" : what);
    return false;
  }
  if (manifest->schema_fingerprint != FingerprintSchema(manifest->schema)) {
    *error = path + ": schema fingerprint does not match stored schema";
    return false;
  }

  core::PayloadReader shards_reader(records[1].payload);
  std::uint64_t count = 0;
  if (!shards_reader.U64(&count) || count > (1ULL << 32)) {
    *error = path + ": malformed manifest shard table";
    return false;
  }
  manifest->shards.resize(static_cast<std::size_t>(count));
  for (ShardInfo& s : manifest->shards) {
    if (!shards_reader.Str(&s.file) || !shards_reader.I64(&s.rows) ||
        !shards_reader.I64(&s.clicks) || !shards_reader.I64(&s.conversions) ||
        !shards_reader.I64(&s.oracle_conversions) || s.rows < 0) {
      *error = path + ": malformed manifest shard entry";
      return false;
    }
  }
  if (!shards_reader.AtEnd()) {
    *error = path + ": trailing bytes in manifest shard table";
    return false;
  }
  return true;
}

// --- ShardWriter -----------------------------------------------------------

ShardWriter::ShardWriter(std::string dir, FeatureSchema schema,
                         ShardWriterConfig config)
    : dir_(std::move(dir)), config_(config) {
  fs_ = config_.fs != nullptr ? config_.fs : core::FileSystem::Default();
  if (config_.rows_per_shard <= 0) config_.rows_per_shard = 1;
  manifest_.schema = std::move(schema);
  manifest_.schema_fingerprint = FingerprintSchema(manifest_.schema);
  pending_.reserve(static_cast<std::size_t>(config_.rows_per_shard));
}

void ShardWriter::Append(const Example& example) {
  if (!ok_ || finished_) return;
  pending_.push_back(example);
  if (static_cast<std::int64_t>(pending_.size()) >= config_.rows_per_shard) {
    FlushShard();
  }
}

void ShardWriter::FlushShard() {
  const int shard_index = static_cast<int>(manifest_.shards.size());
  const std::string file = ShardFileName(shard_index);
  const std::string image =
      EncodeShardImage(manifest_.schema, shard_index, pending_);
  if (!core::AtomicWriteFile(fs_, JoinPath(dir_, file), image)) {
    ok_ = false;
    error_ = JoinPath(dir_, file) + ": atomic write failed";
    return;
  }
  const ShardLabelSums sums = SumLabels(pending_);
  ShardInfo info;
  info.file = file;
  info.rows = static_cast<std::int64_t>(pending_.size());
  info.clicks = sums.clicks;
  info.conversions = sums.conversions;
  info.oracle_conversions = sums.oracle_conversions;
  manifest_.shards.push_back(std::move(info));
  pending_.clear();
}

bool ShardWriter::Finish() {
  if (finished_) return ok_;
  finished_ = true;
  if (!ok_) return false;
  // The final shard may be ragged (short); an entirely empty dataset still
  // gets a manifest with zero shards.
  if (!pending_.empty()) FlushShard();
  if (!ok_) return false;
  std::string err;
  if (!WriteManifest(fs_, dir_, manifest_, &err)) {
    ok_ = false;
    error_ = err;
    return false;
  }
  return true;
}

}  // namespace data
}  // namespace dcmt
