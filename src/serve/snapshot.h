/// \file
/// Model snapshots: one self-contained artifact a prediction service can be
/// constructed from, and the one file format of a trained model. A snapshot
/// bundles everything inference needs — the ModelConfig that shaped the
/// network, the fitted FeatureScaler statistics and the trained parameters
/// — inside the dataset store's record framing (dataset/store.h), reusing
/// its magic/version/checksum corruption guarantees and atomic-rename
/// writer. Every payload is encoded with dataset/wire.h's Enc/Dec:
///
///     kModelConfigRecordType (6)  — every ModelConfig field, encoded
///                                   explicitly (enums validated on load);
///                                   always the first record
///     kScalerRecordType (5) x3    — "node", "tile" and "perf": Str name,
///                                   U32 width, I64 observed count, then
///                                   the mins and maxs as F64
///     kModelParamsRecordType (7)  — U32 count, then per parameter its Str
///                                   name, I32 rows, I32 cols and values
///                                   as F32 (bit-exact)
///
/// LoadModelSnapshot decodes the config, builds the model from it, and
/// checks every other record against that model before allocating or
/// writing anything: each scaler once and at the featurizer's width, the
/// parameter count, names and shapes, no trailing bytes. It then hands the
/// decoded state to LearnedCostModel::Restore.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "core/cost_model.h"

namespace tpuperf::serve {

/// Writes `model` (config + scalers + parameters) to `path` atomically.
/// Throws std::invalid_argument for an unfitted model (as the
/// PredictionService constructor does) and data::StoreError on I/O
/// failure.
void SaveModelSnapshot(const std::string& path,
                       const core::LearnedCostModel& model);

/// Reads a snapshot written by SaveModelSnapshot and reconstructs the model.
/// Throws data::StoreError, naming the record, on any corruption,
/// truncation, missing or repeated record, or config/parameter mismatch.
std::unique_ptr<core::LearnedCostModel> LoadModelSnapshot(
    const std::string& path);

/// LoadModelSnapshot with bounded-backoff retry: up to `max_attempts` loads,
/// sleeping `initial_backoff`, then doubling (capped at 100ms), between
/// attempts. Snapshot loads race real fleet events — an atomic-rename
/// publish, a transient network-filesystem hiccup (modeled by the
/// `snapshot.load_fail` fault point) — where the Nth retry succeeds; a
/// genuinely corrupt file just fails `max_attempts` times, and the last
/// data::StoreError is rethrown. Used by the PredictionService snapshot
/// constructor.
std::unique_ptr<core::LearnedCostModel> LoadModelSnapshotWithRetry(
    const std::string& path, int max_attempts = 3,
    std::chrono::microseconds initial_backoff =
        std::chrono::microseconds(500));

}  // namespace tpuperf::serve
