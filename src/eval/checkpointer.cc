#include "eval/checkpointer.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "core/obs.h"
#include "nn/serialize.h"

namespace dcmt {
namespace eval {
namespace {

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string EncodeTrainerMeta(const TrainCheckpointState& state) {
  nn::PayloadWriter w;
  w.U64(state.fingerprint);
  w.U64(state.variant_fingerprint);
  w.I32(state.epoch);
  w.F64(state.loss_sum);
  w.I64(state.batches);
  w.I64(state.steps);
  w.I32(state.final_epoch);
  w.F64Vec(state.epoch_loss);
  w.F64Vec(state.validation_cvr_auc);
  w.F64(state.best_val_auc);
  w.I32(state.best_epoch);
  w.I32(state.epochs_since_best);
  return w.data();
}

bool DecodeTrainerMeta(std::string_view payload, TrainCheckpointState* state) {
  nn::PayloadReader r(payload);
  if (!r.U64(&state->fingerprint) || !r.U64(&state->variant_fingerprint) ||
      !r.I32(&state->epoch) ||
      !r.F64(&state->loss_sum) || !r.I64(&state->batches) ||
      !r.I64(&state->steps) || !r.I32(&state->final_epoch) ||
      !r.F64Vec(&state->epoch_loss) || !r.F64Vec(&state->validation_cvr_auc) ||
      !r.F64(&state->best_val_auc) || !r.I32(&state->best_epoch) ||
      !r.I32(&state->epochs_since_best)) {
    return false;
  }
  if (state->epoch < 0 || state->batches < 0 || state->steps < 0) return false;
  return r.AtEnd();
}

std::string EncodeAdamState(const optim::AdamState& adam) {
  nn::PayloadWriter w;
  w.I64(adam.step);
  w.F32(adam.lr);
  w.U32(static_cast<std::uint32_t>(adam.m.size()));
  for (std::size_t k = 0; k < adam.m.size(); ++k) {
    w.F32Vec(adam.m[k]);
    w.F32Vec(adam.v[k]);
  }
  return w.data();
}

bool DecodeAdamState(std::string_view payload, optim::AdamState* adam) {
  nn::PayloadReader r(payload);
  std::uint32_t count = 0;
  if (!r.I64(&adam->step) || !r.F32(&adam->lr) || !r.U32(&count)) return false;
  adam->m.resize(count);
  adam->v.resize(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    if (!r.F32Vec(&adam->m[k]) || !r.F32Vec(&adam->v[k])) return false;
  }
  return adam->step >= 0 && r.AtEnd();
}

std::string EncodeRngState(const RngState& rng) {
  nn::PayloadWriter w;
  for (int i = 0; i < 4; ++i) w.U64(rng.s[i]);
  w.U8(rng.has_spare_normal ? 1 : 0);
  w.F32(rng.spare_normal);
  return w.data();
}

bool DecodeRngState(std::string_view payload, RngState* rng) {
  nn::PayloadReader r(payload);
  for (int i = 0; i < 4; ++i) {
    if (!r.U64(&rng->s[i])) return false;
  }
  std::uint8_t has_spare = 0;
  if (!r.U8(&has_spare) || has_spare > 1 || !r.F32(&rng->spare_normal)) {
    return false;
  }
  rng->has_spare_normal = has_spare != 0;
  return r.AtEnd();
}

std::string EncodeBatcherState(const data::BatcherState& batcher) {
  nn::PayloadWriter w;
  w.I64(batcher.cursor);
  w.U8(batcher.fresh_epoch ? 1 : 0);
  w.I64Vec(batcher.order);
  return w.data();
}

bool DecodeBatcherState(std::string_view payload, data::BatcherState* batcher) {
  nn::PayloadReader r(payload);
  std::uint8_t fresh = 0;
  if (!r.I64(&batcher->cursor) || !r.U8(&fresh) || fresh > 1 ||
      !r.I64Vec(&batcher->order)) {
    return false;
  }
  batcher->fresh_epoch = fresh != 0;
  return r.AtEnd();
}

std::string EncodeSnapshot(const std::vector<std::vector<float>>& snapshot) {
  nn::PayloadWriter w;
  w.U32(static_cast<std::uint32_t>(snapshot.size()));
  for (const std::vector<float>& p : snapshot) w.F32Vec(p);
  return w.data();
}

bool DecodeSnapshot(std::string_view payload,
                    std::vector<std::vector<float>>* snapshot) {
  nn::PayloadReader r(payload);
  std::uint32_t count = 0;
  if (!r.U32(&count)) return false;
  snapshot->resize(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    if (!r.F32Vec(&(*snapshot)[k])) return false;
  }
  return r.AtEnd();
}

/// True iff `snapshot` has exactly the module's parameter count and sizes.
bool SnapshotMatchesModule(const std::vector<std::vector<float>>& snapshot,
                           const nn::Module& module) {
  const auto& params = module.parameters();
  if (snapshot.size() != params.size()) return false;
  for (std::size_t k = 0; k < params.size(); ++k) {
    if (snapshot[k].size() != static_cast<std::size_t>(params[k].size())) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::uint64_t FingerprintTrainSetup(const nn::Module& module,
                                    const TrainConfig& config,
                                    std::int64_t dataset_size) {
  nn::PayloadWriter w;
  w.I32(config.epochs);
  w.I32(config.batch_size);
  w.F32(config.learning_rate);
  w.F32(config.weight_decay);
  w.F32(config.grad_clip);
  w.U64(config.seed);
  w.F64(config.validation_fraction);
  w.I32(config.early_stopping_patience);
  w.I64(dataset_size);
  w.U32(static_cast<std::uint32_t>(module.parameters().size()));
  for (const Tensor& p : module.parameters()) {
    w.Str(p.name());
    w.I32(p.rows());
    w.I32(p.cols());
  }
  return Fnv1a64(w.data());
}

std::uint64_t FingerprintModelVariant(const nn::Module& module,
                                      const std::string& variant) {
  nn::PayloadWriter w;
  w.Str(variant);
  w.U32(static_cast<std::uint32_t>(module.parameters().size()));
  for (const Tensor& p : module.parameters()) {
    w.Str(p.name());
    w.I32(p.rows());
    w.I32(p.cols());
  }
  return Fnv1a64(w.data());
}

Checkpointer::Checkpointer(std::string dir, core::FileSystem* fs)
    : dir_(std::move(dir)),
      path_(dir_ + "/train_state.ckpt"),
      fs_(fs != nullptr ? fs : core::FileSystem::Default()) {
  fs_->CreateDirectories(dir_);
}

bool Checkpointer::Save(const nn::Module& module,
                        const TrainCheckpointState& state) {
  static obs::Counter obs_saves =
      obs::Registry::Global().counter("dcmt_checkpoint_saves_total");
  static obs::Counter obs_save_failures =
      obs::Registry::Global().counter("dcmt_checkpoint_save_failures_total");
  static obs::Counter obs_bytes_written =
      obs::Registry::Global().counter("dcmt_checkpoint_bytes_written_total");
  static obs::Sum obs_save_seconds =
      obs::Registry::Global().sum("dcmt_checkpoint_save_seconds_total");
  obs::TraceSpan span("checkpoint/save");
  const std::int64_t t0 = obs::NowNanos();

  std::string image(nn::kCheckpointMagicV2, sizeof(nn::kCheckpointMagicV2));
  const std::uint32_t version = nn::kCheckpointVersion;
  image.append(reinterpret_cast<const char*>(&version), sizeof(version));
  nn::AppendRecord(&image, nn::kTrainerMeta, EncodeTrainerMeta(state));
  nn::AppendRecord(&image, nn::kParameters, nn::EncodeParametersPayload(module));
  nn::AppendRecord(&image, nn::kAdamState, EncodeAdamState(state.adam));
  nn::AppendRecord(&image, nn::kRngState, EncodeRngState(state.shuffle_rng));
  nn::AppendRecord(&image, nn::kBatcherState, EncodeBatcherState(state.batcher));
  if (!state.best_snapshot.empty()) {
    nn::AppendRecord(&image, nn::kBestSnapshot, EncodeSnapshot(state.best_snapshot));
  }
  nn::AppendRecord(&image, nn::kEnd, {});
  span.SetArg("bytes", static_cast<std::int64_t>(image.size()));
  const bool ok = core::AtomicWriteFile(fs_, path_, image);
  if (ok) {
    obs_saves.Inc();
    obs_bytes_written.Inc(static_cast<std::int64_t>(image.size()));
  } else {
    obs_save_failures.Inc();
  }
  obs_save_seconds.Add(static_cast<double>(obs::NowNanos() - t0) * 1e-9);
  return ok;
}

bool Checkpointer::Restore(std::uint64_t expected_fingerprint,
                           nn::Module* module, optim::Adam* adam,
                           data::BatchSource* batcher, Rng* rng,
                           TrainCheckpointState* state) const {
  // Successful restores are counted below; failures are derivable as
  // attempts − restores (there are too many distinct early-outs here for
  // one failure counter to say anything useful).
  static obs::Counter obs_attempts =
      obs::Registry::Global().counter("dcmt_checkpoint_restore_attempts_total");
  static obs::Counter obs_restores =
      obs::Registry::Global().counter("dcmt_checkpoint_restores_total");
  static obs::Counter obs_bytes_read =
      obs::Registry::Global().counter("dcmt_checkpoint_bytes_read_total");
  static obs::Sum obs_restore_seconds =
      obs::Registry::Global().sum("dcmt_checkpoint_restore_seconds_total");
  obs_attempts.Inc();
  obs::TraceSpan span("checkpoint/restore");
  const std::int64_t t0 = obs::NowNanos();

  std::unique_ptr<core::FileReader> reader = fs_->OpenForRead(path_);
  if (reader == nullptr) return false;
  std::string image;
  if (!reader->ReadAll(&image)) return false;

  // Phase 1 — parse and verify the whole file (framing + CRCs).
  std::vector<nn::RecordView> records;
  if (!nn::ParseCheckpointImage(image, &records)) return false;

  std::string_view params_payload;
  bool have_meta = false, have_params = false, have_adam = false,
       have_rng = false, have_batcher = false, have_snapshot = false;
  TrainCheckpointState decoded;
  for (const nn::RecordView& record : records) {
    switch (record.type) {
      case nn::kTrainerMeta:
        if (have_meta || !DecodeTrainerMeta(record.payload, &decoded)) return false;
        have_meta = true;
        break;
      case nn::kParameters:
        if (have_params) return false;
        params_payload = record.payload;
        have_params = true;
        break;
      case nn::kAdamState:
        if (have_adam || !DecodeAdamState(record.payload, &decoded.adam)) return false;
        have_adam = true;
        break;
      case nn::kRngState:
        if (have_rng || !DecodeRngState(record.payload, &decoded.shuffle_rng)) return false;
        have_rng = true;
        break;
      case nn::kBatcherState:
        if (have_batcher || !DecodeBatcherState(record.payload, &decoded.batcher)) return false;
        have_batcher = true;
        break;
      case nn::kBestSnapshot:
        if (have_snapshot || !DecodeSnapshot(record.payload, &decoded.best_snapshot)) return false;
        have_snapshot = true;
        break;
      default:
        return false;  // unknown record type: not a file this build wrote
    }
  }
  if (!have_meta || !have_params || !have_adam || !have_rng || !have_batcher) {
    return false;
  }

  // Phase 2 — validate every payload against the live objects, still
  // without mutating anything.
  if (decoded.fingerprint != expected_fingerprint) return false;
  if (!nn::ValidateParametersPayload(params_payload, *module)) return false;
  const auto& adam_params = adam->params();
  if (decoded.adam.m.size() != adam_params.size() ||
      decoded.adam.v.size() != adam_params.size()) {
    return false;
  }
  for (std::size_t k = 0; k < adam_params.size(); ++k) {
    const std::size_t n = static_cast<std::size_t>(adam_params[k].size());
    if (decoded.adam.m[k].size() != n || decoded.adam.v[k].size() != n) {
      return false;
    }
  }
  if (!decoded.best_snapshot.empty() &&
      !SnapshotMatchesModule(decoded.best_snapshot, *module)) {
    return false;
  }

  // Phase 3 — apply. RestoreState re-checks the batcher invariants and is
  // the first mutation; everything after it has been pre-validated above
  // and cannot fail.
  if (!batcher->RestoreState(decoded.batcher)) return false;
  if (!adam->ImportState(decoded.adam)) return false;
  if (!nn::ApplyParametersPayload(params_payload, module)) return false;
  rng->set_state(decoded.shuffle_rng);
  *state = std::move(decoded);
  obs_restores.Inc();
  obs_bytes_read.Inc(static_cast<std::int64_t>(image.size()));
  obs_restore_seconds.Add(static_cast<double>(obs::NowNanos() - t0) * 1e-9);
  span.SetArg("bytes", static_cast<std::int64_t>(image.size()));
  return true;
}

bool Checkpointer::WarmStart(std::uint64_t expected_variant_fingerprint,
                             nn::Module* module, optim::Adam* adam,
                             std::string* error) const {
  static obs::Counter obs_warm_starts =
      obs::Registry::Global().counter("dcmt_checkpoint_warm_starts_total");
  obs::TraceSpan span("checkpoint/warm_start");
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };

  std::unique_ptr<core::FileReader> reader = fs_->OpenForRead(path_);
  if (reader == nullptr) return fail("cannot open " + path_);
  std::string image;
  if (!reader->ReadAll(&image)) return fail("cannot read " + path_);

  // Phase 1 — parse and verify the whole file (framing + CRCs), decoding
  // only the records a warm start consumes.
  std::vector<nn::RecordView> records;
  if (!nn::ParseCheckpointImage(image, &records)) {
    return fail("corrupt checkpoint image: " + path_);
  }
  std::string_view params_payload;
  bool have_meta = false, have_params = false, have_adam = false;
  TrainCheckpointState decoded;
  for (const nn::RecordView& record : records) {
    switch (record.type) {
      case nn::kTrainerMeta:
        if (have_meta || !DecodeTrainerMeta(record.payload, &decoded)) {
          return fail("bad trainer-meta record in " + path_);
        }
        have_meta = true;
        break;
      case nn::kParameters:
        if (have_params) return fail("duplicate parameters record in " + path_);
        params_payload = record.payload;
        have_params = true;
        break;
      case nn::kAdamState:
        if (have_adam || !DecodeAdamState(record.payload, &decoded.adam)) {
          return fail("bad adam-state record in " + path_);
        }
        have_adam = true;
        break;
      case nn::kRngState:
      case nn::kBatcherState:
      case nn::kBestSnapshot:
        break;  // run-position state: deliberately not warm-started
      default:
        return fail("unknown record type in " + path_);
    }
  }
  if (!have_meta || !have_params || !have_adam) {
    return fail("incomplete checkpoint in " + path_);
  }

  // Phase 2 — validate before the first mutation. The variant check is the
  // one that turns a silent cross-variant restore into a clear error.
  if (decoded.variant_fingerprint != expected_variant_fingerprint) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "model-variant fingerprint mismatch: checkpoint %016llx vs "
                  "configured variant %016llx (%s)",
                  static_cast<unsigned long long>(decoded.variant_fingerprint),
                  static_cast<unsigned long long>(expected_variant_fingerprint),
                  path_.c_str());
    return fail(buf);
  }
  if (!nn::ValidateParametersPayload(params_payload, *module)) {
    return fail("parameter payload does not match module in " + path_);
  }
  const auto& adam_params = adam->params();
  if (decoded.adam.m.size() != adam_params.size() ||
      decoded.adam.v.size() != adam_params.size()) {
    return fail("adam state does not match optimizer in " + path_);
  }
  for (std::size_t k = 0; k < adam_params.size(); ++k) {
    const std::size_t n = static_cast<std::size_t>(adam_params[k].size());
    if (decoded.adam.m[k].size() != n || decoded.adam.v[k].size() != n) {
      return fail("adam state does not match optimizer in " + path_);
    }
  }

  // Phase 3 — apply parameters + moments only; pre-validated, cannot fail.
  if (!adam->ImportState(decoded.adam)) {
    return fail("adam import rejected state from " + path_);
  }
  if (!nn::ApplyParametersPayload(params_payload, module)) {
    return fail("parameter apply rejected payload from " + path_);
  }
  obs_warm_starts.Inc();
  span.SetArg("bytes", static_cast<std::int64_t>(image.size()));
  return true;
}

bool Checkpointer::Exists() const { return fs_->Exists(path_); }

}  // namespace eval
}  // namespace dcmt
