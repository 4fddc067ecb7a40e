/// \file
/// Out-of-core dataset streaming (ISSUE 9 tentpole).
///
/// The paper's datasets (25M tile / 208M fusion samples, §4) never fit in
/// one host's memory; production training streams shuffled shards instead.
/// StreamingSampler reproduces that shape over the sharded dataset stores
/// of dataset/store.h: it scans the part files once at construction
/// (recording byte offsets, never materializing payloads), then serves
/// shuffle windows — contiguous chunks of the record stream decoded on
/// demand with a one-window prefetch on core::ThreadPool — so training
/// memory is O(window), not O(corpus).
///
/// ## Determinism contract
///
/// The ORDER of windows within an epoch is shuffled with a hand-rolled
/// Fisher-Yates keyed only by (seed, epoch) — never std::shuffle, whose
/// output is implementation-defined. Record order INSIDE a window stays
/// canonical (store order). Construction of every window is a pure
/// function of the store bytes and those two integers, so the sequence of
/// windows is bit-identical at any thread-pool width, and with a single
/// window (window_records = 0 or >= the corpus) the stream degenerates to
/// the canonical in-memory order — the streaming trainers then draw
/// exactly the RNG sequence of the in-memory trainers and reproduce their
/// losses bit for bit (tests/streaming_test.cpp holds this with EXPECT_EQ).
///
/// ## Memory contract
///
/// Beyond the offset indexes built by the scan (a few words per record),
/// the sampler holds one decoded window — two while the prefetch of the
/// next one runs — and nothing that grows with the corpus:
///
/// * records are read through DatasetReaders, which pread each record into
///   one reused scratch buffer and never hold the file whole;
/// * a window decodes only the graph-dictionary entries its records
///   reference, each once, through its own reader, into a table
///   local to the window and freed with it;
/// * StreamedFeatures decodes a featurized record on every Lookup and
///   hands the caller an owning copy, keeping no decoded features.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataset/store.h"
#include "features/featurizer.h"

namespace tpuperf::data {

enum class StreamTask { kTile, kFusion };

struct StreamingOptions {
  // Records per shuffle window. 0 (or anything >= the task's record count)
  // means one window holding the whole stream in canonical order.
  std::size_t window_records = 0;
  // Keys the per-epoch window shuffle (with the epoch number).
  std::uint64_t seed = 0;
  // Prefetch the next window on core::ThreadPool::Global() while the
  // caller trains on the current one.
  bool prefetch = true;
};

/// One decoded shuffle window. Exactly one of `tile` / `fusion` is
/// populated, matching the sampler's task.
struct StreamWindow {
  std::vector<TileKernelData> tile;
  std::vector<FusionSample> fusion;
  std::size_t begin = 0;  // record range [begin, end) in stream order
  std::size_t end = 0;
  std::size_t window_index = 0;  // canonical window number
  std::uint64_t epoch = 0;

  std::size_t size() const noexcept { return end - begin; }
};

/// Lazy feat::KernelFeatureSource over the featurized records of a store:
/// the sampler indexes (fingerprint, signature) -> (part, offset) during
/// its scan; every Lookup preads and decodes the record and returns it,
/// retaining nothing (mutex-protected per-part readers — safe for
/// concurrent Lookup from pool workers). Warm streaming runs therefore
/// keep feat::FeaturizeKernelInvocations() at zero without ever holding
/// the featurized corpus in memory.
class StreamedFeatures final : public feat::KernelFeatureSource {
 public:
  std::optional<feat::KernelFeatures> Lookup(
      std::uint64_t fingerprint, std::uint64_t structural_sig) const override;

  // Featurized records indexed across all parts.
  std::size_t indexed() const noexcept { return indexed_; }
  // Records decoded by Lookup so far.
  std::size_t decoded() const noexcept { return decoded_.load(); }

 private:
  friend class StreamingSampler;

  struct Loc {
    std::uint64_t structural_sig = 0;
    std::uint32_t part = 0;
    std::uint64_t offset = 0;
  };

  std::vector<std::string> part_paths_;
  std::unordered_map<std::uint64_t, std::vector<Loc>> index_;
  std::size_t indexed_ = 0;

  mutable std::atomic<std::size_t> decoded_{0};
  mutable std::mutex mu_;  // guards readers_ (shared scratch buffers)
  mutable std::vector<std::unique_ptr<DatasetReader>> readers_;  // per part
};

/// Prefetching shuffle-window iterator over a dataset store (sharded or
/// single-file). Construction scans every part once — validating framing
/// and the checksums of the records it indexes — and builds the
/// record/dictionary/featurized offset indexes; Next() then
/// serves windows per the determinism contract above. Not thread-safe
/// itself (one trainer drives it); the features() source is.
class StreamingSampler {
 public:
  StreamingSampler(std::string store_path, StreamTask task,
                   StreamingOptions options = {});
  ~StreamingSampler();
  StreamingSampler(const StreamingSampler&) = delete;
  StreamingSampler& operator=(const StreamingSampler&) = delete;

  StreamTask task() const noexcept { return task_; }
  // Task records (tile kernels or fusion samples) across all parts.
  std::size_t total_records() const noexcept { return records_.size(); }
  std::size_t part_count() const noexcept { return parts_.size(); }
  std::size_t window_records() const noexcept { return window_records_; }
  std::size_t windows_per_epoch() const noexcept { return windows_; }
  std::uint64_t epoch() const noexcept { return epoch_; }
  double scan_seconds() const noexcept { return scan_seconds_; }

  // The next window in the deterministic per-epoch shuffled order,
  // prefetching its successor before returning.
  StreamWindow Next();

  // Synchronous canonical accessor: window w in store order, no shuffle,
  // no prefetch. The streaming trainers' scaler pre-pass walks these so
  // scaler statistics match the in-memory fit exactly.
  StreamWindow Window(std::size_t w) const;

  // Lazy feature source over the store's featurized records; register it
  // with feat::SetGlobalKernelFeatureSource for warm streaming training.
  std::shared_ptr<StreamedFeatures> features() const noexcept {
    return features_;
  }

 private:
  struct PartIndex {
    std::string path;
    std::vector<std::uint64_t> dict_offsets;  // dictionary records, in order
  };

  StreamWindow LoadWindow(std::size_t w, std::uint64_t epoch) const;
  void ReshuffleOrder();
  void LaunchPrefetch();

  StreamTask task_;
  StreamingOptions options_;
  std::vector<PartIndex> parts_;
  // (part, record offset) of every task record, in stream order.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> records_;
  std::size_t window_records_ = 0;
  std::size_t windows_ = 0;
  double scan_seconds_ = 0;
  std::shared_ptr<StreamedFeatures> features_;

  std::uint64_t epoch_ = 0;
  std::size_t next_in_epoch_ = 0;
  std::vector<std::uint32_t> order_;  // window order for epoch_
  std::future<StreamWindow> prefetched_;
  bool prefetch_valid_ = false;
};

}  // namespace tpuperf::data
