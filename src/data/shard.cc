#include "data/shard.h"

#include <algorithm>
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

std::int64_t SumBytes(const std::vector<std::uint8_t>& column) {
  std::int64_t sum = 0;
  for (const std::uint8_t b : column) sum += b;
  return sum;
}

ShardLabelSums SumLabels(const ShardColumns& columns) {
  return {SumBytes(columns.click), SumBytes(columns.conversion),
          SumBytes(columns.oracle_conversion)};
}

/// Calls `visit(column)` on every column of `*columns`.
template <typename Visit>
void ForEachColumn(ShardColumns* columns, const Visit& visit) {
  for (std::vector<std::int32_t>& ids : columns->deep_ids) visit(ids);
  for (std::vector<std::int32_t>& ids : columns->wide_ids) visit(ids);
  visit(columns->click);
  visit(columns->conversion);
  visit(columns->oracle_conversion);
  visit(columns->true_ctr);
  visit(columns->true_cvr);
  visit(columns->user_index);
  visit(columns->item_index);
  visit(columns->convert_lag_days);
}

bool ReadColumn(core::PayloadReader* in, std::vector<std::uint8_t>* column) {
  return in->U8Vec(column);
}
bool ReadColumn(core::PayloadReader* in, std::vector<float>* column) {
  return in->F32Vec(column);
}
bool ReadColumn(core::PayloadReader* in, std::vector<std::int32_t>* column) {
  return in->I32Vec(column);
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

Example ShardColumns::Row(std::int64_t r) const {
  const std::size_t i = static_cast<std::size_t>(r);
  Example e;
  e.deep_ids.reserve(deep_ids.size());
  for (const std::vector<std::int32_t>& column : deep_ids) {
    e.deep_ids.push_back(column[i]);
  }
  e.wide_ids.reserve(wide_ids.size());
  for (const std::vector<std::int32_t>& column : wide_ids) {
    e.wide_ids.push_back(column[i]);
  }
  e.click = click[i];
  e.conversion = conversion[i];
  e.oracle_conversion = oracle_conversion[i];
  e.true_ctr = true_ctr[i];
  e.true_cvr = true_cvr[i];
  e.user_index = user_index[i];
  e.item_index = item_index[i];
  e.convert_lag_days = convert_lag_days[i];
  return e;
}

ShardColumns ShardColumns::FromRows(const FeatureSchema& schema,
                                    const std::vector<Example>& rows) {
  const std::size_t n = rows.size();
  ShardColumns c;
  c.deep_ids.assign(schema.deep_fields.size(), std::vector<std::int32_t>(n));
  c.wide_ids.assign(schema.wide_fields.size(), std::vector<std::int32_t>(n));
  c.click.resize(n);
  c.conversion.resize(n);
  c.oracle_conversion.resize(n);
  c.true_ctr.resize(n);
  c.true_cvr.resize(n);
  c.user_index.resize(n);
  c.item_index.resize(n);
  c.convert_lag_days.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const Example& e = rows[r];
    for (std::size_t f = 0; f < c.deep_ids.size(); ++f) {
      c.deep_ids[f][r] = e.deep_ids[f];
    }
    for (std::size_t f = 0; f < c.wide_ids.size(); ++f) {
      c.wide_ids[f][r] = e.wide_ids[f];
    }
    c.click[r] = e.click;
    c.conversion[r] = e.conversion;
    c.oracle_conversion[r] = e.oracle_conversion;
    c.true_ctr[r] = e.true_ctr;
    c.true_cvr[r] = e.true_cvr;
    c.user_index[r] = e.user_index;
    c.item_index[r] = e.item_index;
    c.convert_lag_days[r] = e.convert_lag_days;
  }
  return c;
}

std::string EncodeShardImage(const FeatureSchema& schema, int shard_index,
                             const ShardColumns& columns) {
  const std::uint64_t fingerprint = FingerprintSchema(schema);
  const std::int64_t n = columns.size();

  core::PayloadWriter header;
  header.U64(fingerprint);
  header.U32(static_cast<std::uint32_t>(shard_index));
  header.I64(n);

  // One id column per field, then the label byte columns, propensity float
  // columns, and entity index columns.
  core::PayloadWriter body;
  body.I64(n);
  body.U32(static_cast<std::uint32_t>(schema.deep_fields.size()));
  body.U32(static_cast<std::uint32_t>(schema.wide_fields.size()));
  for (const std::vector<std::int32_t>& ids : columns.deep_ids) body.I32Vec(ids);
  for (const std::vector<std::int32_t>& ids : columns.wide_ids) body.I32Vec(ids);
  body.U8Vec(columns.click);
  body.U8Vec(columns.conversion);
  body.U8Vec(columns.oracle_conversion);
  body.F32Vec(columns.true_ctr);
  body.F32Vec(columns.true_cvr);
  body.I32Vec(columns.user_index);
  body.I32Vec(columns.item_index);
  body.I32Vec(columns.convert_lag_days);

  const ShardLabelSums sums = SumLabels(columns);
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
                   ShardColumns* columns, std::string* error) {
  *error = {};
  // Every failure below empties the columns, so no caller can read a
  // partially decoded shard.
  const auto fail = [&](std::string message) {
    *error = std::move(message);
    *columns = ShardColumns{};
    return false;
  };
  if (shard_index < 0 ||
      static_cast<std::size_t>(shard_index) >= manifest.shards.size()) {
    return fail(path + ": shard index out of manifest range");
  }
  const ShardInfo& info = manifest.shards[static_cast<std::size_t>(shard_index)];

  std::string image;
  if (!ReadFileImage(fs, path, &image, error)) return fail(*error);

  std::vector<core::RecordView> records;
  if (!core::ParseRecordImage(image, kShardMagic, kShardFormatVersion, &records)) {
    return fail(path + ": malformed shard container (bad magic, framing or CRC)");
  }
  if (records.size() != 3 || records[0].type != kShardHeader ||
      records[1].type != kShardRows || records[2].type != kShardFooter) {
    return fail(path + ": unexpected shard record layout");
  }

  // Header: the shard must belong to this manifest, at this position.
  core::PayloadReader header(records[0].payload);
  std::uint64_t fingerprint = 0;
  std::uint32_t stored_index = 0;
  std::int64_t header_rows = 0;
  if (!header.U64(&fingerprint) || !header.U32(&stored_index) ||
      !header.I64(&header_rows) || !header.AtEnd()) {
    return fail(path + ": malformed shard header");
  }
  if (fingerprint != manifest.schema_fingerprint) {
    return fail(path + ": schema fingerprint mismatch (wrong dataset?)");
  }
  if (stored_index != static_cast<std::uint32_t>(shard_index)) {
    return fail(path + ": shard index mismatch (file moved or renamed?)");
  }
  if (header_rows != info.rows) {
    return fail(path + ": header row count disagrees with manifest");
  }

  // Body: decode each column straight into its place.
  const std::size_t n_deep = manifest.schema.deep_fields.size();
  const std::size_t n_wide = manifest.schema.wide_fields.size();
  core::PayloadReader body(records[1].payload);
  std::int64_t n = 0;
  std::uint32_t deep_count = 0, wide_count = 0;
  if (!body.I64(&n) || !body.U32(&deep_count) || !body.U32(&wide_count)) {
    return fail(path + ": malformed shard body");
  }
  if (n != info.rows || deep_count != n_deep || wide_count != n_wide) {
    return fail(path + ": shard body shape disagrees with manifest schema");
  }
  const std::size_t rows_n = static_cast<std::size_t>(n);
  columns->deep_ids.resize(n_deep);
  columns->wide_ids.resize(n_wide);
  // Values are checked as their column is decoded, the way ReadCsv checks
  // its cells: a CRC only proves the bytes are the ones written, and an
  // out-of-vocab id or a label outside {0, 1} would abort training later.
  const auto reject = [&](const std::string& column, std::size_t r,
                          const std::string& what) {
    return fail(path + ": " + column + ": " + what + " (row " +
                std::to_string(r) + ")");
  };
  const auto read_ids = [&](const char* kind, const FieldSpec& field,
                            std::vector<std::int32_t>* ids) {
    if (!body.I32Vec(ids) || ids->size() != rows_n) {
      return fail(path + ": truncated " + kind + " id column");
    }
    for (std::size_t r = 0; r < rows_n; ++r) {
      const std::int32_t id = (*ids)[r];
      if (id < 0 || id >= field.vocab_size) {
        return reject(std::string(kind) + ":" + field.name, r,
                      "id " + std::to_string(id) + " is outside [0, " +
                          std::to_string(field.vocab_size) + ")");
      }
    }
    return true;
  };
  for (std::size_t f = 0; f < n_deep; ++f) {
    if (!read_ids("deep", manifest.schema.deep_fields[f],
                  &columns->deep_ids[f])) {
      return false;
    }
  }
  for (std::size_t f = 0; f < n_wide; ++f) {
    if (!read_ids("wide", manifest.schema.wide_fields[f],
                  &columns->wide_ids[f])) {
      return false;
    }
  }
  const auto read_column = [&](auto* column) {
    if (!ReadColumn(&body, column) || column->size() != rows_n) {
      return fail(path + ": truncated shard column");
    }
    return true;
  };
  // Click decodes before conversion, so the conversion loop can check that
  // every conversion has its click.
  const auto read_labels = [&](const char* name,
                               std::vector<std::uint8_t>* labels) {
    if (!read_column(labels)) return false;
    const bool is_conversion = labels == &columns->conversion;
    for (std::size_t r = 0; r < rows_n; ++r) {
      const std::uint8_t b = (*labels)[r];
      if (b > 1) {
        return reject(name, r, "label " + std::to_string(b) + " is not 0 or 1");
      }
      if (is_conversion && b == 1 && columns->click[r] == 0) {
        return reject(name, r, "conversion without a click");
      }
    }
    return true;
  };
  if (!read_labels("click", &columns->click) ||
      !read_labels("conversion", &columns->conversion) ||
      !read_labels("oracle_conversion", &columns->oracle_conversion) ||
      !read_column(&columns->true_ctr) || !read_column(&columns->true_cvr) ||
      !read_column(&columns->user_index) ||
      !read_column(&columns->item_index) ||
      !read_column(&columns->convert_lag_days)) {
    return false;
  }
  if (!body.AtEnd()) return fail(path + ": trailing bytes in shard body");

  // Footer: counts and sums must agree with the decoded columns AND with
  // the manifest entry, so a stale manifest or a swapped shard is caught.
  core::PayloadReader footer(records[2].payload);
  std::int64_t footer_rows = 0, clicks = 0, conversions = 0, oracle = 0;
  std::uint64_t footer_fingerprint = 0;
  if (!footer.I64(&footer_rows) || !footer.I64(&clicks) ||
      !footer.I64(&conversions) || !footer.I64(&oracle) ||
      !footer.U64(&footer_fingerprint) || !footer.AtEnd()) {
    return fail(path + ": malformed shard footer");
  }
  const ShardLabelSums sums = SumLabels(*columns);
  if (footer_rows != n || footer_fingerprint != fingerprint ||
      sums.clicks != clicks || sums.conversions != conversions ||
      sums.oracle_conversions != oracle) {
    return fail(path + ": footer validation failed (rows or label sums)");
  }
  if (clicks != info.clicks || conversions != info.conversions ||
      oracle != info.oracle_conversions) {
    return fail(path + ": label sums disagree with manifest");
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
  pending_.deep_ids.resize(manifest_.schema.deep_fields.size());
  pending_.wide_ids.resize(manifest_.schema.wide_fields.size());
  ForEachColumn(&pending_, [&](auto& column) {
    column.reserve(static_cast<std::size_t>(config_.rows_per_shard));
  });
}

void ShardWriter::Append(const Example& example) {
  if (!ok_ || finished_) return;
  for (std::size_t f = 0; f < pending_.deep_ids.size(); ++f) {
    pending_.deep_ids[f].push_back(example.deep_ids[f]);
  }
  for (std::size_t f = 0; f < pending_.wide_ids.size(); ++f) {
    pending_.wide_ids[f].push_back(example.wide_ids[f]);
  }
  pending_.click.push_back(example.click);
  pending_.conversion.push_back(example.conversion);
  pending_.oracle_conversion.push_back(example.oracle_conversion);
  pending_.true_ctr.push_back(example.true_ctr);
  pending_.true_cvr.push_back(example.true_cvr);
  pending_.user_index.push_back(example.user_index);
  pending_.item_index.push_back(example.item_index);
  pending_.convert_lag_days.push_back(example.convert_lag_days);
  if (pending_.size() >= config_.rows_per_shard) FlushShard();
}

void ShardWriter::Append(const ShardColumns& rows) {
  // Rows [begin, end) of `from` onto the end of `to`.
  const auto append = [](const auto& from, std::int64_t begin,
                         std::int64_t end, auto* to) {
    to->insert(to->end(), from.begin() + begin, from.begin() + end);
  };
  std::int64_t begin = 0;
  while (ok_ && !finished_ && begin < rows.size()) {
    const std::int64_t end = std::min(
        rows.size(), begin + config_.rows_per_shard - pending_.size());
    for (std::size_t f = 0; f < pending_.deep_ids.size(); ++f) {
      append(rows.deep_ids[f], begin, end, &pending_.deep_ids[f]);
    }
    for (std::size_t f = 0; f < pending_.wide_ids.size(); ++f) {
      append(rows.wide_ids[f], begin, end, &pending_.wide_ids[f]);
    }
    append(rows.click, begin, end, &pending_.click);
    append(rows.conversion, begin, end, &pending_.conversion);
    append(rows.oracle_conversion, begin, end, &pending_.oracle_conversion);
    append(rows.true_ctr, begin, end, &pending_.true_ctr);
    append(rows.true_cvr, begin, end, &pending_.true_cvr);
    append(rows.user_index, begin, end, &pending_.user_index);
    append(rows.item_index, begin, end, &pending_.item_index);
    append(rows.convert_lag_days, begin, end, &pending_.convert_lag_days);
    if (pending_.size() >= config_.rows_per_shard) FlushShard();
    begin = end;
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
  info.rows = pending_.size();
  info.clicks = sums.clicks;
  info.conversions = sums.conversions;
  info.oracle_conversions = sums.oracle_conversions;
  manifest_.shards.push_back(std::move(info));
  // Emptied, not freed: the next shard refills the same buffers.
  ForEachColumn(&pending_, [](auto& column) { column.clear(); });
}

bool ShardWriter::Finish() {
  if (finished_) return ok_;
  finished_ = true;
  if (!ok_) return false;
  // The final shard may be ragged (short); an entirely empty dataset still
  // gets a manifest with zero shards.
  if (pending_.size() > 0) FlushShard();
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
