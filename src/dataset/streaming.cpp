#include "dataset/streaming.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "core/thread_pool.h"

namespace tpuperf::data {
namespace {

// SplitMix64: a tiny, implementation-independent generator for the window
// shuffle (std::mt19937_64 would work, but hand-rolling keeps the entire
// shuffle spec'd by this file, and std::shuffle is out anyway — its
// permutation is implementation-defined).
std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint32_t TaskRecordType(StreamTask task) {
  return task == StreamTask::kTile ? kTileKernelRecordType
                                   : kFusionSampleRecordType;
}

using Clock = std::chrono::steady_clock;

}  // namespace

// ---- StreamedFeatures ------------------------------------------------------

std::optional<feat::KernelFeatures> StreamedFeatures::Lookup(
    std::uint64_t fingerprint, std::uint64_t structural_sig) const {
  const auto it = index_.find(fingerprint);
  if (it == index_.end()) return std::nullopt;
  const auto loc = std::find_if(
      it->second.begin(), it->second.end(),
      [&](const Loc& l) { return l.structural_sig == structural_sig; });
  if (loc == it->second.end()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  if (readers_.size() < part_paths_.size()) {
    readers_.resize(part_paths_.size());
  }
  std::unique_ptr<DatasetReader>& reader = readers_[loc->part];
  if (reader == nullptr) {
    reader = std::make_unique<DatasetReader>(part_paths_[loc->part]);
  }
  FeaturizedKernel record =
      DecodeFeaturizedRecord(reader->ReadRecordAt(loc->offset));
  ++decoded_;
  return std::move(record.features);
}

// ---- StreamingSampler ------------------------------------------------------

StreamingSampler::StreamingSampler(std::string store_path, StreamTask task,
                                   StreamingOptions options)
    : task_(task), options_(options),
      features_(std::make_shared<StreamedFeatures>()) {
  const auto start = Clock::now();

  // One pass per part file (ForEachStorePart checks each part's byte size
  // and record count against the manifest first): index task records and
  // dictionary records by offset, and the featurized records by
  // (fingerprint, signature). Program and scaler records are seeked past
  // without buffering; the checksums of indexed records are verified here.
  const std::uint32_t wanted[] = {kGraphDictRecordType, TaskRecordType(task_),
                                  kFeaturizedRecordType};
  ForEachStorePart(store_path, [&](const DatasetReader& reader,
                                   const StorePartInfo*) {
    const auto p = static_cast<std::uint32_t>(parts_.size());
    PartIndex& part = parts_.emplace_back(PartIndex{reader.path(), {}});
    reader.ForEachRecord(
        [&](const RecordView& view) {
          if (view.type == kGraphDictRecordType) {
            part.dict_offsets.push_back(view.offset);
          } else if (view.type == kFeaturizedRecordType) {
            const auto [fingerprint, sig] = PeekFeaturizedKey(view);
            features_->index_[fingerprint].push_back(
                StreamedFeatures::Loc{sig, p, view.offset});
            ++features_->indexed_;
          } else {
            records_.emplace_back(p, view.offset);
          }
        },
        wanted);
    features_->part_paths_.push_back(part.path);
  });

  window_records_ =
      (options_.window_records == 0 || options_.window_records >= records_.size())
          ? std::max<std::size_t>(records_.size(), 1)
          : options_.window_records;
  windows_ = (records_.size() + window_records_ - 1) / window_records_;
  ReshuffleOrder();
  scan_seconds_ =
      std::chrono::duration<double>(Clock::now() - start).count();
}

StreamingSampler::~StreamingSampler() {
  if (prefetch_valid_) {
    try {
      prefetched_.get();
    } catch (...) {
      // The prefetch's error would have surfaced on the next Next(); the
      // sampler is being destroyed, so there is no caller left to rethrow
      // to.
    }
  }
}

void StreamingSampler::ReshuffleOrder() {
  order_.resize(windows_);
  std::iota(order_.begin(), order_.end(), 0u);
  if (order_.size() < 2) return;
  std::uint64_t state = options_.seed ^ (epoch_ * 0x9E3779B97F4A7C15ull) ^
                        0x5747EA33ED57ull;
  for (std::size_t i = order_.size() - 1; i > 0; --i) {
    const std::size_t j =
        static_cast<std::size_t>(SplitMix64(state) % (i + 1));
    std::swap(order_[i], order_[j]);
  }
}

StreamWindow StreamingSampler::LoadWindow(std::size_t w,
                                          std::uint64_t epoch) const {
  StreamWindow out;
  out.window_index = w;
  out.epoch = epoch;
  out.begin = w * window_records_;
  out.end = std::min(records_.size(), out.begin + window_records_);
  if (task_ == StreamTask::kTile) {
    out.tile.reserve(out.size());
  } else {
    out.fusion.reserve(out.size());
  }
  // Records are in stream order, so the slice touches each part in one
  // contiguous run. Per run: one reader for the records, one for
  // the dictionary entries they reference (decoded once each into a table
  // local to the run), so open descriptors stay O(1) and dictionary memory
  // follows the window, not the part.
  std::unique_ptr<DatasetReader> reader;
  std::unique_ptr<DatasetReader> dict_reader;
  GraphDict dict;
  std::uint32_t current_part = 0;
  for (std::size_t i = out.begin; i < out.end; ++i) {
    const auto [part, offset] = records_[i];
    const PartIndex& index = parts_[part];
    if (reader == nullptr || part != current_part) {
      reader = std::make_unique<DatasetReader>(index.path);
      dict_reader = std::make_unique<DatasetReader>(index.path);
      dict = GraphDict();
      current_part = part;
    }
    const RecordView view = reader->ReadRecordAt(offset);
    if (const std::uint32_t entry = PeekKernelDictIndex(view);
        !dict.contains(entry)) {
      // The whole-file readers accept only dictionary records that precede
      // the referencing record; the same count, by binary search here.
      const auto preceding = static_cast<std::size_t>(
          std::lower_bound(index.dict_offsets.begin(),
                           index.dict_offsets.end(), offset) -
          index.dict_offsets.begin());
      CheckDictIndexPrecedes(entry, preceding, view.context);
      dict.Put(entry, GraphDict::Decode(dict_reader->ReadRecordAt(
                          index.dict_offsets[entry])));
    }
    if (task_ == StreamTask::kTile) {
      out.tile.push_back(DecodeTileKernelRecord(view, dict));
    } else {
      out.fusion.push_back(DecodeFusionSampleRecord(view, dict));
    }
  }
  return out;
}

StreamWindow StreamingSampler::Window(std::size_t w) const {
  if (w >= windows_) {
    throw std::out_of_range("StreamingSampler::Window: index " +
                            std::to_string(w) + " of " +
                            std::to_string(windows_));
  }
  return LoadWindow(w, epoch_);
}

void StreamingSampler::LaunchPrefetch() {
  const std::size_t w = order_[next_in_epoch_];
  const std::uint64_t ep = epoch_;
  prefetched_ = core::ThreadPool::Global().Submit(
      [this, w, ep] { return LoadWindow(w, ep); });
  prefetch_valid_ = true;
}

StreamWindow StreamingSampler::Next() {
  if (windows_ == 0) {
    throw StoreError("StreamingSampler::Next: the store holds no records "
                     "for this task");
  }
  if (!prefetch_valid_) LaunchPrefetch();
  StreamWindow window = prefetched_.get();
  prefetch_valid_ = false;
  if (++next_in_epoch_ == windows_) {
    next_in_epoch_ = 0;
    ++epoch_;
    ReshuffleOrder();
  }
  if (options_.prefetch) LaunchPrefetch();
  return window;
}

}  // namespace tpuperf::data
