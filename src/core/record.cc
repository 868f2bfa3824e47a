#include "core/record.h"

#include <cstring>

#include "core/io.h"

namespace dcmt {
namespace core {

// --- PayloadWriter ---------------------------------------------------------

void PayloadWriter::Raw(const void* p, std::size_t n) {
  // An empty vector's data() may be null; skip the zero-length copy.
  if (n == 0) return;
  buf_.append(static_cast<const char*>(p), n);
}

void PayloadWriter::U8(std::uint8_t v) { Raw(&v, sizeof(v)); }
void PayloadWriter::U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
void PayloadWriter::I32(std::int32_t v) { Raw(&v, sizeof(v)); }
void PayloadWriter::U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
void PayloadWriter::I64(std::int64_t v) { Raw(&v, sizeof(v)); }
void PayloadWriter::F32(float v) { Raw(&v, sizeof(v)); }
void PayloadWriter::F64(double v) { Raw(&v, sizeof(v)); }

void PayloadWriter::Str(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  Raw(s.data(), s.size());
}

void PayloadWriter::F32Vec(const std::vector<float>& v) {
  F32Array(v.data(), v.size());
}

void PayloadWriter::F32Array(const float* data, std::size_t n) {
  U64(n);
  Raw(data, sizeof(float) * n);
}

void PayloadWriter::F64Vec(const std::vector<double>& v) {
  U64(v.size());
  Raw(v.data(), sizeof(double) * v.size());
}

void PayloadWriter::I64Vec(const std::vector<std::int64_t>& v) {
  U64(v.size());
  Raw(v.data(), sizeof(std::int64_t) * v.size());
}

void PayloadWriter::I32Vec(const std::vector<std::int32_t>& v) {
  U64(v.size());
  Raw(v.data(), sizeof(std::int32_t) * v.size());
}

void PayloadWriter::U8Vec(const std::vector<std::uint8_t>& v) {
  U64(v.size());
  Raw(v.data(), sizeof(std::uint8_t) * v.size());
}

// --- PayloadReader ---------------------------------------------------------

bool PayloadReader::Raw(void* p, std::size_t n) {
  if (!ok_ || rest_.size() < n) {
    ok_ = false;
    return false;
  }
  // memcpy's pointers must be non-null even for n == 0, and an empty
  // vector's data() may be null.
  if (n == 0) return true;
  std::memcpy(p, rest_.data(), n);
  rest_.remove_prefix(n);
  return true;
}

bool PayloadReader::U8(std::uint8_t* v) { return Raw(v, sizeof(*v)); }
bool PayloadReader::U32(std::uint32_t* v) { return Raw(v, sizeof(*v)); }
bool PayloadReader::I32(std::int32_t* v) { return Raw(v, sizeof(*v)); }
bool PayloadReader::U64(std::uint64_t* v) { return Raw(v, sizeof(*v)); }
bool PayloadReader::I64(std::int64_t* v) { return Raw(v, sizeof(*v)); }
bool PayloadReader::F32(float* v) { return Raw(v, sizeof(*v)); }
bool PayloadReader::F64(double* v) { return Raw(v, sizeof(*v)); }

bool PayloadReader::Str(std::string* s, std::size_t max_len) {
  std::uint32_t len = 0;
  if (!U32(&len) || len > max_len || rest_.size() < len) {
    ok_ = false;
    return false;
  }
  s->assign(rest_.data(), len);
  rest_.remove_prefix(len);
  return true;
}

template <typename T>
bool PayloadReader::Vec(std::vector<T>* v) {
  std::uint64_t count = 0;
  if (!U64(&count) || count > rest_.size() / sizeof(T)) {
    ok_ = false;
    return false;
  }
  v->resize(static_cast<std::size_t>(count));
  return Raw(v->data(), sizeof(T) * v->size());
}

bool PayloadReader::F32Vec(std::vector<float>* v) { return Vec(v); }
bool PayloadReader::F64Vec(std::vector<double>* v) { return Vec(v); }
bool PayloadReader::I64Vec(std::vector<std::int64_t>* v) { return Vec(v); }
bool PayloadReader::I32Vec(std::vector<std::int32_t>* v) { return Vec(v); }
bool PayloadReader::U8Vec(std::vector<std::uint8_t>* v) { return Vec(v); }

// --- Record framing --------------------------------------------------------

void AppendRecord(std::string* out, std::uint32_t type, std::string_view payload) {
  const std::uint32_t type_u32 = type;
  const std::uint64_t size_u64 = payload.size();
  char header[12];
  std::memcpy(header, &type_u32, sizeof(type_u32));
  std::memcpy(header + 4, &size_u64, sizeof(size_u64));
  std::uint32_t crc = Crc32(header, sizeof(header));
  crc = Crc32(payload.data(), payload.size(), crc);
  out->append(header, sizeof(header));
  out->append(payload.data(), payload.size());
  out->append(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

std::string BeginRecordImage(const char (&magic)[8], std::uint32_t version) {
  std::string image(magic, sizeof(magic));
  image.append(reinterpret_cast<const char*>(&version), sizeof(version));
  return image;
}

bool ParseRecordImage(std::string_view file, const char (&magic)[8],
                      std::uint32_t expected_version,
                      std::vector<RecordView>* records) {
  records->clear();
  if (file.size() < sizeof(magic) + sizeof(std::uint32_t)) return false;
  if (std::memcmp(file.data(), magic, sizeof(magic)) != 0) return false;
  std::uint32_t version = 0;
  std::memcpy(&version, file.data() + sizeof(magic), sizeof(version));
  if (version != expected_version) return false;

  std::string_view rest = file.substr(sizeof(magic) + sizeof(std::uint32_t));
  for (;;) {
    if (rest.size() < 12 + sizeof(std::uint32_t)) return false;  // truncated
    std::uint32_t type = 0;
    std::uint64_t size = 0;
    std::memcpy(&type, rest.data(), sizeof(type));
    std::memcpy(&size, rest.data() + 4, sizeof(size));
    if (size > rest.size() - 12 - sizeof(std::uint32_t)) return false;
    const std::string_view payload = rest.substr(12, static_cast<std::size_t>(size));
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, rest.data() + 12 + size, sizeof(stored_crc));
    std::uint32_t crc = Crc32(rest.data(), 12);
    crc = Crc32(payload.data(), payload.size(), crc);
    if (crc != stored_crc) return false;
    rest.remove_prefix(12 + static_cast<std::size_t>(size) + sizeof(std::uint32_t));
    if (type == kEndRecordType) {
      if (!payload.empty()) return false;
      if (!rest.empty()) return false;  // trailing garbage after terminator
      return true;
    }
    records->push_back(RecordView{type, payload});
  }
}

}  // namespace core
}  // namespace dcmt
