#include "dataset/streaming.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <unordered_map>


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

// ---- PartReader -----------------------------------------------------------

const DatasetReader& PartReader::Get(std::uint32_t part,
                                     const std::string& path) {
  if (reader_ == nullptr || part_ != part) {
    reader_.reset();  // close the open part before opening the next
    reader_ = std::make_unique<DatasetReader>(path);
    part_ = part;
  }
  return *reader_;
}

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
  const DatasetReader& reader = reader_.Get(loc->part, part_paths_[loc->part]);
  FeaturizedKernel record =
      DecodeFeaturizedRecord(reader.ReadRecordAt(loc->offset));
  ++decoded_;
  return std::move(record.features);
}

// ---- StreamWindow ----------------------------------------------------------

StreamWindow::StreamWindow(const StreamingSampler& sampler, std::size_t w)
    : sampler_(&sampler),
      begin_(w * sampler.window_records_),
      end_(std::min(sampler.records_.size(),
                    begin_ + sampler.window_records_)) {}

int StreamWindow::program_id(std::size_t i) const {
  return sampler_->records_[begin_ + i].program_id;
}

const std::string& StreamWindow::family(std::size_t i) const {
  return sampler_->families_[sampler_->records_[begin_ + i].family];
}

template <typename Record, typename Decode>
const Record& StreamWindow::Resolve(std::vector<std::unique_ptr<Record>>& memo,
                                    std::size_t i, Decode decode) {
  if (i >= size()) {
    throw std::out_of_range("StreamWindow: record " + std::to_string(i) +
                            " of " + std::to_string(size()));
  }
  if (memo.empty()) memo.resize(size());
  std::unique_ptr<Record>& slot = memo[i];
  if (slot != nullptr) return *slot;

  const StreamingSampler::RecordRef& ref = sampler_->records_[begin_ + i];
  const StreamingSampler::PartIndex& part = sampler_->parts_[ref.part];
  const DatasetReader& reader = reader_.Get(ref.part, part.path);
  RecordView view = reader.ReadRecordAt(ref.offset);
  // The whole-file readers accept only dictionary records that precede the
  // referencing record; the same count, by binary search here. Records are
  // drawn in any order, so every record is checked, cached entry or not.
  const std::uint32_t entry = PeekKernelRecordHead(view).dict_index;
  const auto preceding = static_cast<std::size_t>(
      std::lower_bound(part.dict_offsets.begin(), part.dict_offsets.end(),
                       ref.offset) -
      part.dict_offsets.begin());
  CheckDictIndexPrecedes(entry, preceding, view.context);
  GraphDict& dict = dicts_[ref.part];
  if (!dict.contains(entry)) {
    // The dictionary read reuses the reader's scratch buffer: keep the
    // record's payload across it.
    held_.assign(view.payload.begin(), view.payload.end());
    view.payload = held_;
    dict.Put(entry, GraphDict::Decode(
                        reader.ReadRecordAt(part.dict_offsets[entry])));
  }
  slot = std::make_unique<Record>(decode(view, dict));
  ++sampler_->decoded_;
  return *slot;
}

const TileKernelData& StreamWindow::tile(std::size_t i) {
  if (sampler_->task_ != StreamTask::kTile) {
    throw std::logic_error("StreamWindow::tile: the sampler streams fusion "
                           "samples");
  }
  return Resolve(tile_, i, DecodeTileKernelRecord);
}

const FusionSample& StreamWindow::fusion(std::size_t i) {
  if (sampler_->task_ != StreamTask::kFusion) {
    throw std::logic_error("StreamWindow::fusion: the sampler streams tile "
                           "kernels");
  }
  return Resolve(fusion_, i, DecodeFusionSampleRecord);
}

// ---- StreamingSampler ------------------------------------------------------

StreamingSampler::StreamingSampler(std::string store_path, StreamTask task,
                                   StreamingOptions options)
    : task_(task), options_(options),
      features_(std::make_shared<StreamedFeatures>()) {
  const auto start = Clock::now();

  // One pass per part file (ForEachStorePart checks each part's byte size
  // and record count against the manifest first): index task records (with
  // the program id and family of their payload heads) and dictionary
  // records by offset, and the featurized records by (fingerprint,
  // signature). Program and scaler records are seeked past without
  // buffering; the checksums of indexed records are verified here.
  const std::uint32_t wanted[] = {kGraphDictRecordType, TaskRecordType(task_),
                                  kFeaturizedRecordType};
  std::unordered_map<std::string, std::uint32_t> family_ids;
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
            KernelRecordHead head = PeekKernelRecordHead(view);
            const auto [family, added] = family_ids.try_emplace(
                head.family, static_cast<std::uint32_t>(families_.size()));
            if (added) families_.push_back(std::move(head.family));
            records_.push_back(
                RecordRef{view.offset, p, family->second, head.program_id});
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

StreamWindow StreamingSampler::Window(std::size_t w) const {
  if (w >= windows_) {
    throw std::out_of_range("StreamingSampler::Window: index " +
                            std::to_string(w) + " of " +
                            std::to_string(windows_));
  }
  return StreamWindow(*this, w);
}

StreamWindow StreamingSampler::Next() {
  if (windows_ == 0) {
    throw StoreError("StreamingSampler::Next: the store holds no records "
                     "for this task");
  }
  StreamWindow window(*this, order_[next_in_epoch_]);
  if (++next_in_epoch_ == windows_) {
    next_in_epoch_ = 0;
    ++epoch_;
    ReshuffleOrder();
  }
  return window;
}

}  // namespace tpuperf::data
