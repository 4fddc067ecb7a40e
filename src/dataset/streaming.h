/// \file
/// Out-of-core dataset streaming.
///
/// The paper's datasets (25M tile / 208M fusion samples, §4) never fit in
/// one host's memory; production training streams shuffled shards instead.
/// StreamingSampler reproduces that shape over the sharded dataset stores
/// of dataset/store.h: it scans the part files once at construction
/// (recording each task record's byte offset, program id and family, never
/// materializing payloads), then serves shuffle windows — contiguous chunks
/// of the record stream. A window is a view: building one does no I/O, and
/// each record is read and decoded when the trainer first draws it, so a
/// training step pays for the records it uses and no more.
///
/// ## Determinism contract
///
/// The ORDER of windows within an epoch is shuffled with a hand-rolled
/// Fisher-Yates keyed only by (seed, epoch) — never std::shuffle, whose
/// output is implementation-defined. Record order INSIDE a window stays
/// canonical (store order). Every window, and every record it decodes, is
/// a pure function of the store bytes and those two integers, so the
/// sequence of windows is bit-identical from run to run. With a
/// single window (window_records = 0 or >= the corpus) the stream is the
/// canonical in-memory order: the in-memory trainers run the same driver
/// over the dataset as one such window, so a streaming trainer then draws
/// their RNG sequence and reproduces their losses and parameters bit for
/// bit (tests/streaming_test.cpp checks this with exact equality).
///
/// ## Memory contract
///
/// Beyond the indexes built by the scan (a few words per record), the
/// sampler holds nothing that grows with the corpus; a live window holds
/// only the records drawn from it so far:
///
/// * records are read through DatasetReaders, which pread each record into
///   one reused scratch buffer and never hold the file whole;
/// * a window decodes a record on first access and keeps it for the
///   window's lifetime, together with the graph-dictionary entries its
///   decoded records reference, each decoded once;
/// * a window and the StreamedFeatures source each keep one part file
///   open at a time, so open descriptors do not grow with the part count;
/// * StreamedFeatures decodes a featurized record on every Lookup and
///   hands the caller an owning copy, keeping no decoded features.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
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
};

/// The one part-file reader a window or feature source keeps open: a read
/// from another part closes it and opens that part's. Not thread-safe.
class PartReader {
 public:
  // The reader of part `part` (whose file is `path`), opening it if another
  // part (or none) is open. The reference is valid until the next Get.
  const DatasetReader& Get(std::uint32_t part, const std::string& path);

 private:
  std::uint32_t part_ = 0;
  std::unique_ptr<DatasetReader> reader_;  // of part_; null until a Get
};

class StreamingSampler;

/// One shuffle window: a view of records [first_record(), first_record() +
/// size()) of its sampler's stream. Program ids and families come from the
/// sampler's scan; tile()/fusion() read and decode record i on first access
/// and return the same object on every later access, for the window's
/// lifetime. The sampler must outlive its windows. Not thread-safe: one
/// trainer resolves a window's records.
class StreamWindow {
 public:
  std::size_t size() const noexcept { return end_ - begin_; }
  std::size_t first_record() const noexcept { return begin_; }

  // Scanned metadata of record i (0 <= i < size()); no I/O.
  int program_id(std::size_t i) const;
  const std::string& family(std::size_t i) const;

  // Record i, decoded on first access. tile() needs a tile-task sampler
  // and fusion() a fusion-task one (std::logic_error otherwise).
  const TileKernelData& tile(std::size_t i);
  const FusionSample& fusion(std::size_t i);

 private:
  friend class StreamingSampler;

  StreamWindow(const StreamingSampler& sampler, std::size_t w);

  // Record i of `memo`; on first access reads it (and the graph-dictionary
  // entry it references, into dicts_) and stores decode(view, dict).
  template <typename Record, typename Decode>
  const Record& Resolve(std::vector<std::unique_ptr<Record>>& memo,
                        std::size_t i, Decode decode);

  const StreamingSampler* sampler_;
  std::size_t begin_ = 0;  // record range [begin_, end_) in stream order
  std::size_t end_ = 0;
  PartReader reader_;
  std::map<std::uint32_t, GraphDict> dicts_;  // per part touched
  std::vector<unsigned char> held_;  // a record payload kept across a read
  // Decoded records by window position; only the task's vector is used.
  std::vector<std::unique_ptr<TileKernelData>> tile_;
  std::vector<std::unique_ptr<FusionSample>> fusion_;
};

/// Lazy feat::KernelFeatureSource over the featurized records of a store:
/// the sampler indexes (fingerprint, signature) -> (part, offset) during
/// its scan; every Lookup preads and decodes the record and returns it,
/// retaining nothing (its PartReader is mutex-protected — safe for
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
  mutable std::mutex mu_;  // guards reader_ (its shared scratch buffer)
  mutable PartReader reader_;
};

/// Shuffle-window iterator over a dataset store (sharded or single-file).
/// Construction scans every part once — validating framing and the
/// checksums of the records it indexes — and builds the record, dictionary
/// and featurized offset indexes; Next() then serves windows per the
/// determinism contract above. Not thread-safe itself (one trainer drives
/// it); the features() source is.
class StreamingSampler {
 public:
  StreamingSampler(std::string store_path, StreamTask task,
                   StreamingOptions options = {});
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
  // Task records decoded by this sampler's windows so far.
  std::size_t decoded() const noexcept { return decoded_.load(); }

  // The next window in the deterministic per-epoch shuffled order.
  StreamWindow Next();

  // Canonical accessor: window w in store order, no shuffle. The streaming
  // trainers' scaler pre-pass walks these so scaler statistics match the
  // in-memory fit exactly.
  StreamWindow Window(std::size_t w) const;

  // Lazy feature source over the store's featurized records; hand it to
  // the training core::PreparedCache for warm streaming training.
  std::shared_ptr<StreamedFeatures> features() const noexcept {
    return features_;
  }

 private:
  friend class StreamWindow;

  struct PartIndex {
    std::string path;
    std::vector<std::uint64_t> dict_offsets;  // dictionary records, in order
  };
  // One task record, as the scan found it.
  struct RecordRef {
    std::uint64_t offset = 0;  // of the record header in its part
    std::uint32_t part = 0;
    std::uint32_t family = 0;  // index into families_
    std::int32_t program_id = -1;
  };

  void ReshuffleOrder();

  StreamTask task_;
  StreamingOptions options_;
  std::vector<PartIndex> parts_;
  std::vector<RecordRef> records_;  // every task record, in stream order
  std::vector<std::string> families_;  // distinct family names
  std::size_t window_records_ = 0;
  std::size_t windows_ = 0;
  double scan_seconds_ = 0;
  std::shared_ptr<StreamedFeatures> features_;
  mutable std::atomic<std::size_t> decoded_{0};

  std::uint64_t epoch_ = 0;
  std::size_t next_in_epoch_ = 0;
  std::vector<std::uint32_t> order_;  // window order for epoch_
};

}  // namespace tpuperf::data
