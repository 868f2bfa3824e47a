#ifndef DCMT_NN_SERIALIZE_H_
#define DCMT_NN_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/io.h"
#include "core/record.h"
#include "nn/module.h"

namespace dcmt {
namespace nn {

// ---------------------------------------------------------------------------
// Checkpoint container format (v2). See DESIGN.md §10 for the full layout.
//
//   file    := magic(8) version(u32) record* end-record
//   record  := type(u32) payload_size(u64) payload crc32(u32)
//
// The CRC of each record covers its type, size and payload, so truncation,
// bit flips and framing damage are all detected before any payload is
// interpreted. Files must end with a kEnd record followed immediately by
// EOF; trailing garbage is rejected. Writers go through core::AtomicWriteFile
// (tmp + fsync + rename), so a crash mid-save leaves the previous complete
// file in place, never a torn one.
// ---------------------------------------------------------------------------

inline constexpr char kCheckpointMagicV2[8] = {'D', 'C', 'M', 'T', 'C', 'K', 'P', '2'};
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Record types a v2 checkpoint file may carry. Model-only checkpoints hold
/// a single kParameters record; full training checkpoints (eval::Checkpointer)
/// add optimizer/RNG/batcher/trainer records.
enum RecordType : std::uint32_t {
  kEnd = 0,           // terminator; empty payload
  kParameters = 1,    // module parameters (names, shapes, float32 data)
  kAdamState = 2,     // Adam step, lr, first/second moments
  kRngState = 3,      // xoshiro256** state + Box-Muller spare
  kBatcherState = 4,  // epoch order permutation + cursor
  kTrainerMeta = 5,   // epoch/step counters, loss history, best-epoch metric
  kBestSnapshot = 6,  // best-epoch parameter snapshot (early stopping)
};

/// The container primitives live in core::record so other on-disk formats
/// (shard files, shard manifests — src/data/shard) share one framing
/// implementation; these aliases keep the historical nn:: spellings working.
using PayloadWriter = core::PayloadWriter;
using PayloadReader = core::PayloadReader;
using RecordView = core::RecordView;

/// Appends one framed record (type, size, payload, CRC) to `*out`.
void AppendRecord(std::string* out, RecordType type, std::string_view payload);

/// Validates an entire v2 checkpoint image — magic, version, every record
/// CRC, the kEnd terminator, and the absence of trailing bytes — and returns
/// views of the records (kEnd excluded). Returns false on any damage; no
/// partial results are produced.
bool ParseCheckpointImage(std::string_view file, std::vector<RecordView>* records);

/// Serializes `module`'s parameters into a kParameters payload.
std::string EncodeParametersPayload(const Module& module);

/// Pure check: true iff `payload` is a well-formed kParameters payload whose
/// count, names, shapes and data sizes all match `module`. Never mutates.
bool ValidateParametersPayload(std::string_view payload, const Module& module);

/// Validates a kParameters payload against `module` (count, names, shapes,
/// data sizes) and only then copies the weights in. On any mismatch returns
/// false with the module untouched — validation is complete before the first
/// tensor write.
bool ApplyParametersPayload(std::string_view payload, Module* module);

/// Writes all parameters of `module` to a v2 checkpoint at `path`, atomically
/// (tmp + fsync + rename). `fs` defaults to the real file system; tests pass
/// a core::FaultInjectingFileSystem. Returns false on I/O failure, in which
/// case any previous file at `path` is preserved intact.
bool SaveParameters(const Module& module, const std::string& path,
                    core::FileSystem* fs = nullptr);

/// Loads a checkpoint written by SaveParameters into `module`. The whole
/// file is validated — framing, checksums, and every parameter's
/// name/shape — before any tensor is written, so a rejected file (corrupt,
/// truncated, in an older format, or from a different architecture) leaves
/// the module completely unchanged. Returns false on failure.
bool LoadParameters(Module* module, const std::string& path,
                    core::FileSystem* fs = nullptr);

}  // namespace nn
}  // namespace dcmt

#endif  // DCMT_NN_SERIALIZE_H_
