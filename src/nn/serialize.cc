#include "nn/serialize.h"

#include <cstring>

namespace dcmt {
namespace nn {
namespace {

/// Staged, fully validated parameter data: nothing touches the module until
/// every record has been checked.
struct StagedParameters {
  std::vector<std::vector<float>> values;
};

void ApplyStaged(const StagedParameters& staged, Module* module) {
  const auto& params = module->parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor p = params[i];  // shared handle: writes reach the module
    std::memcpy(p.data(), staged.values[i].data(),
                sizeof(float) * staged.values[i].size());
  }
}

/// Validates a kParameters payload against the module into `staged`.
bool StageV2Payload(std::string_view payload, const Module& module,
                    StagedParameters* staged) {
  PayloadReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.U32(&count)) return false;
  const auto& params = module.parameters();
  if (count != params.size()) return false;

  staged->values.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::int32_t rows = 0, cols = 0;
    if (!reader.Str(&name) || !reader.I32(&rows) || !reader.I32(&cols) ||
        !reader.F32Vec(&staged->values[i])) {
      return false;
    }
    const Tensor& p = params[i];
    if (name != p.name() || rows != p.rows() || cols != p.cols()) return false;
    if (staged->values[i].size() != static_cast<std::size_t>(p.size())) {
      return false;
    }
  }
  return reader.AtEnd();
}

}  // namespace

// --- Record framing --------------------------------------------------------
// (implemented in core::record; these wrappers keep nn:: call sites typed)

void AppendRecord(std::string* out, RecordType type, std::string_view payload) {
  core::AppendRecord(out, static_cast<std::uint32_t>(type), payload);
}

bool ParseCheckpointImage(std::string_view file, std::vector<RecordView>* records) {
  return core::ParseRecordImage(file, kCheckpointMagicV2, kCheckpointVersion,
                                records);
}

// --- Parameter payloads ----------------------------------------------------

std::string EncodeParametersPayload(const Module& module) {
  PayloadWriter payload;
  payload.U32(static_cast<std::uint32_t>(module.parameters().size()));
  for (const Tensor& p : module.parameters()) {
    payload.Str(p.name());
    payload.I32(p.rows());
    payload.I32(p.cols());
    payload.F32Array(p.data(), static_cast<std::size_t>(p.size()));
  }
  return payload.data();
}

bool ValidateParametersPayload(std::string_view payload, const Module& module) {
  StagedParameters staged;
  return StageV2Payload(payload, module, &staged);
}

bool ApplyParametersPayload(std::string_view payload, Module* module) {
  StagedParameters staged;
  if (!StageV2Payload(payload, *module, &staged)) return false;
  ApplyStaged(staged, module);
  return true;
}

// --- Whole-file API --------------------------------------------------------

bool SaveParameters(const Module& module, const std::string& path,
                    core::FileSystem* fs) {
  std::string image(kCheckpointMagicV2, sizeof(kCheckpointMagicV2));
  const std::uint32_t version = kCheckpointVersion;
  image.append(reinterpret_cast<const char*>(&version), sizeof(version));
  AppendRecord(&image, kParameters, EncodeParametersPayload(module));
  AppendRecord(&image, kEnd, {});
  return core::AtomicWriteFile(fs, path, image);
}

bool LoadParameters(Module* module, const std::string& path,
                    core::FileSystem* fs) {
  if (fs == nullptr) fs = core::FileSystem::Default();
  std::unique_ptr<core::FileReader> reader = fs->OpenForRead(path);
  if (reader == nullptr) return false;
  std::string image;
  if (!reader->ReadAll(&image)) return false;

  std::vector<RecordView> records;
  if (!ParseCheckpointImage(image, &records)) return false;
  // A model checkpoint carries exactly one kParameters record.
  if (records.size() != 1 || records[0].type != kParameters) return false;
  StagedParameters staged;
  if (!StageV2Payload(records[0].payload, *module, &staged)) return false;
  ApplyStaged(staged, module);
  return true;
}

}  // namespace nn
}  // namespace dcmt
