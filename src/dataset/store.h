/// \file
/// On-disk featurized dataset store (ROADMAP "Dataset scale-out").
///
/// The paper collects its 25M/208M-sample datasets once and reuses them
/// for every experiment (§4); Halide's learned cost model and TenSet ship
/// pre-featurized sample stores for the same reason. This store decouples
/// training scale from generation cost the same way: a dataset build
/// (simulation measurements) and its featurization (feat::FeaturizeKernel
/// graph walks) are written to disk once, and warm runs load both without
/// touching the simulator or the featurizer.
///
/// ## Record framing
///
/// File format (versioned, little-endian regardless of host):
///
///     header:  magic "TPUPERFD" (8 B) | format version u32 |
///              feature-config hash u64 | record count u64
///     record:  type u32 | payload size u64 | FNV-1a-64 checksum of
///              payload u64 | payload bytes
///
/// Records are written back to back after the header; the record count is
/// patched into the header by DatasetWriter::Finish(). Readers check the
/// framing of every record in one place: its header and its payload must
/// lie inside the file, the records must end exactly at end of file, and
/// every payload handed to a caller must match its checksum. Record types:
/// program info, tile-task kernels (graph + measured tile configs +
/// runtimes), fusion samples, featurized kernels (raw node features as
/// f64 + adjacency in CSR form + static perf), shared kernel-graph
/// dictionary entries, and the shard manifest. Unknown record types are a
/// read error (not skipped): a store is only readable by the format
/// version that wrote it.
///
/// ## Sharding (format v3)
///
/// A DatasetWriter constructed with `max_part_bytes > 0` shards its output
/// into part files `<path>.p000`, `<path>.p001`, ... of roughly that many
/// bytes each. Every part is itself a complete, self-contained store file
/// (own header, own record count, own graph dictionary), and `<path>`
/// becomes a tiny manifest store whose single record lists each part's
/// file name, record count, byte size, and an FNV-1a-64 checksum of its
/// records region. Parts are renamed into place before the manifest, and
/// the manifest rename is the commit point: readers either see a complete
/// sharded store or (on a crashed writer) no manifest at all.
/// ReadStoreContents() reads both layouts transparently; the
/// dataset::StreamingSampler iterates parts without materializing them.
///
/// ## Graph dictionary (format v3)
///
/// Kernel graphs duplicated across records (every FusionSample of the same
/// kernel under a different tile, tile kernels repeated across shards) are
/// stored once per file as a dictionary record; kernel-bearing records
/// reference their graph by dictionary index. Dictionaries never span part
/// files, so each part stays independently readable.
///
/// ## Corruption guarantees
///
/// Readers verify the magic, reject files written by any other format
/// version, reject mismatched feature-config hashes (the featurizer
/// layout changed; cached matrices would be meaningless), and verify
/// every decoded record's size and checksum — truncation (also of a file
/// that shrinks under an open reader), bit flips, trailing garbage, and
/// structural nonsense all fail loudly with a
/// diagnostic StoreError naming the file and failing offset/record, never
/// a silent partial load. Sharded reads additionally verify each part's
/// byte size, record count, and records-region checksum against the
/// manifest, and a missing part file is a loud error. Writers stream to a
/// temporary sibling file renamed atomically into place by Finish(), so a
/// crashed or unfinished writer leaves no half-written store behind (the
/// temporaries are removed on destruction). tests/store_test.cpp
/// exercises each failure mode adversarially.
///
/// ## Zero-copy lifetime contract
///
/// ForEachRecord / ReadRecordAt hand out RecordView spans instead of
/// copies. Every reader preads each payload into one scratch buffer it
/// owns and REUSES for the next record read, so a span is valid only until
/// the next ForEachRecord callback / ReadRecordAt call (decode before
/// moving on — ReadAll and the streaming layer do). Readers are not
/// thread-safe; use one reader per thread.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dataset/datasets.h"
#include "dataset/wire.h"
#include "features/featurizer.h"

namespace tpuperf::data {

// Version 2 added the model-snapshot record types (6, 7). Version 3 added
// sharded stores (manifest record type 9) and the shared kernel-graph
// dictionary (record type 8, plus a layout tag byte in the kernel-bearing
// record payloads). Readers accept version 3 only: older files are
// rejected, like newer ones, with a StoreError.
inline constexpr std::uint32_t kStoreFormatVersion = 3;
inline constexpr char kStoreMagic[8] = {'T', 'P', 'U', 'P',
                                        'E', 'R', 'F', 'D'};

/// Record types of the store framing. Dataset stores hold types 1-4 and 8;
/// model snapshot files (serve/snapshot.h) hold types 5-7 inside the same
/// framing (and are rejected with a pointer to serve::LoadModelSnapshot
/// when fed to DatasetReader::ReadAll); sharded-store manifests hold a
/// single type-9 record.
inline constexpr std::uint32_t kProgramRecordType = 1;
inline constexpr std::uint32_t kTileKernelRecordType = 2;
inline constexpr std::uint32_t kFusionSampleRecordType = 3;
inline constexpr std::uint32_t kFeaturizedRecordType = 4;
inline constexpr std::uint32_t kScalerRecordType = 5;
inline constexpr std::uint32_t kModelConfigRecordType = 6;
inline constexpr std::uint32_t kModelParamsRecordType = 7;
inline constexpr std::uint32_t kGraphDictRecordType = 8;
inline constexpr std::uint32_t kManifestRecordType = 9;

/// Header layout: magic(8) version(4) feature_hash(8) record_count(8).
inline constexpr std::size_t kStoreHeaderSize = 28;
/// Per-record prefix: type(4) payload_size(8) checksum(8).
inline constexpr std::size_t kStoreRecordHeaderSize = 20;

/// Hash of the feature-extractor layout (block widths, encoded rank, opcode
/// vocabulary size). Stored in every file header; a mismatch means the
/// cached featurized matrices no longer describe what the model would see
/// and the store must be regenerated.
std::uint64_t FeatureConfigHash();

/// One kernel's raw featurization keyed by the graph hashes core's
/// PreparedCache already uses (fingerprint + structural signature for
/// collision safety).
struct FeaturizedKernel {
  std::uint64_t fingerprint = 0;
  std::uint64_t structural_sig = 0;
  feat::KernelFeatures features;
};

/// Loaded featurized records, servable as a feat::KernelFeatureSource so
/// PreparedCache and the trainers skip FeaturizeKernel on warm runs. Safe
/// for concurrent Lookup once populated; Lookup copies the record out.
class StoredFeatures final : public feat::KernelFeatureSource {
 public:
  // Appends one record (first entry wins on exact duplicates).
  void Add(FeaturizedKernel kernel);

  std::optional<feat::KernelFeatures> Lookup(
      std::uint64_t fingerprint, std::uint64_t structural_sig) const override;

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  // Records in insertion order, for serialization.
  const std::deque<FeaturizedKernel>& entries() const noexcept {
    return entries_;
  }

 private:
  const FeaturizedKernel* Find(std::uint64_t fingerprint,
                               std::uint64_t structural_sig) const;

  std::deque<FeaturizedKernel> entries_;  // stable addresses
  std::unordered_map<std::uint64_t, std::vector<const FeaturizedKernel*>>
      by_fingerprint_;
};

/// Corpus manifest entry: program identity survives serialization, so split
/// specs computed over the generating corpus stay meaningful for a loaded
/// dataset.
struct ProgramInfo {
  int program_id = -1;
  std::string name;
  std::string family;

  bool operator==(const ProgramInfo&) const = default;
};

/// Everything a store file holds.
struct StoreContents {
  std::vector<ProgramInfo> programs;
  TileDataset tile;
  FusionDataset fusion;
  std::shared_ptr<StoredFeatures> features =
      std::make_shared<StoredFeatures>();
};

/// One part of a sharded store, as its manifest lists it.
struct StorePartInfo {
  std::string file;               // basename, sibling of the manifest
  std::uint64_t records = 0;      // framing record count of the part
  std::uint64_t bytes = 0;        // part file size in bytes
  std::uint64_t records_fnv = 0;  // FNV-1a-64 of bytes [header, end)
};

/// Streams records to `path`. Writes go to temporary sibling files
/// atomically renamed into place by Finish(), so readers never observe a
/// half-written store; an unfinished writer removes its temporaries on
/// destruction. With `max_part_bytes > 0` the output is sharded (see the
/// file comment); the manifest rename is then the commit point.
class DatasetWriter {
 public:
  explicit DatasetWriter(std::string path, std::uint64_t max_part_bytes = 0);
  ~DatasetWriter();
  DatasetWriter(const DatasetWriter&) = delete;
  DatasetWriter& operator=(const DatasetWriter&) = delete;

  void Add(const ProgramInfo& program);
  void Add(const TileKernelData& kernel);
  void Add(const FusionSample& sample);
  void Add(const FeaturizedKernel& kernel);

  // Appends one raw record (type + payload) with the standard framing
  // (size + checksum). This is how non-dataset consumers of the framing
  // (serve's model snapshots) write their record types.
  void AddRaw(std::uint32_t type, const std::string& payload);

  // Total records written so far, across all parts (dictionary records
  // included).
  std::uint64_t record_count() const noexcept { return count_; }
  // Parts this store occupies so far (1 for an unsharded store).
  std::size_t part_count() const noexcept;

  // Patches the record count(s) into the header(s), renames the temporary
  // file(s) to the final path(s), and — for a sharded store — commits the
  // manifest last. Throws StoreError on I/O failure.
  void Finish();

 private:
  struct Part;  // one open part sink (its file descriptor), in the .cpp

  void OpenPart();
  // Patches the open part's record count, closes and renames it, and
  // appends its manifest entry.
  void ClosePart();
  // Sharded mode: rolls to a new part when the open one is full.
  void MaybeRoll();
  void WriteRecord(std::uint32_t type, const std::string& payload);
  // Dictionary index of this kernel's graph in the open part, emitting the
  // dictionary record on first use.
  std::uint32_t DictIndexFor(const KernelRecord& record);

  std::string path_;
  std::uint64_t max_part_bytes_ = 0;  // 0 = unsharded single file
  std::unique_ptr<Part> part_;
  std::vector<StorePartInfo> parts_;  // closed parts (sharded mode)
  // (fingerprint, structural signature) -> dict index, per open part.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> dict_;
  std::uint64_t count_ = 0;
  bool finished_ = false;
};

/// One record of a store file, as handed to ForEachRecord callbacks and
/// returned by ReadRecordAt. See the zero-copy lifetime contract in the
/// file comment: `payload` aliases the reader's reusable scratch buffer
/// and is valid until the next record is read.
struct RecordView {
  std::uint32_t type = 0;
  std::span<const unsigned char> payload;
  std::uint64_t checksum = 0;  // the framing checksum `payload` matched
  std::uint64_t offset = 0;  // byte offset of the record header in the file
  std::string context;       // "<path>: record <r>" for diagnostics
};

/// Validates the header on construction and decodes records on ReadAll().
/// Any inconsistency — bad magic, another format version, feature-config
/// mismatch, truncation, checksum or structural corruption — throws
/// StoreError with the file name and failing offset/record. Reads go
/// through pread on a descriptor held open for the reader's lifetime (a
/// read that hits end of file throws, even if the file shrank after it was
/// opened). Not thread-safe (one scratch buffer per reader).
class DatasetReader {
 public:
  explicit DatasetReader(std::string path);
  ~DatasetReader();
  DatasetReader(const DatasetReader&) = delete;
  DatasetReader& operator=(const DatasetReader&) = delete;

  std::uint32_t format_version() const noexcept { return version_; }
  std::uint64_t feature_config_hash() const noexcept { return feature_hash_; }
  std::uint64_t record_count() const noexcept { return count_; }
  const std::string& path() const noexcept { return path_; }

  // True when this file is a sharded-store manifest (a single manifest
  // record). Read it with ReadStoreContents or ForEachStorePart — ReadAll
  // on a manifest throws with that pointer.
  bool sharded_manifest() const noexcept;

  // Decodes this one file's records into StoreContents. For a sharded
  // store open the MANIFEST path with ReadStoreContents instead.
  StoreContents ReadAll() const;

  // Walks records in file order, validating framing bounds for every
  // record and the payload checksum for every DELIVERED record, invoking
  // fn(view) for records whose type is in `types` (empty = all). Records
  // filtered out are skipped without reading their payload: the walk seeks
  // past them instead of buffering them.
  void ForEachRecord(const std::function<void(const RecordView&)>& fn,
                     std::span<const std::uint32_t> types = {}) const;

  // Random access: reads and checksum-verifies the record whose header
  // starts at `offset` (an offset previously produced by ForEachRecord).
  // Subject to the same lifetime contract as ForEachRecord.
  RecordView ReadRecordAt(std::uint64_t offset) const;

 private:
  // The framing prefix of one record.
  struct RecordHeader {
    std::uint32_t type = 0;
    std::uint64_t payload_size = 0;
    std::uint64_t checksum = 0;
  };

  // Validates the file header (magic, version, feature-config hash).
  void ReadFileHeader();
  // Preads exactly `size` bytes at `offset` into `out`; throws StoreError
  // on a read error or on end of file.
  void ReadBytes(std::uint64_t offset, std::size_t size,
                 unsigned char* out) const;
  // "<path>: record <r>", or "<path>: record at byte <offset>" for a
  // random-access read (r == kByOffset).
  std::string RecordContext(std::uint64_t r, std::uint64_t offset) const;
  // Reads the record header at `offset` and checks that the header and its
  // payload lie inside the file.
  RecordHeader ReadHeader(std::uint64_t r, std::uint64_t offset) const;
  // Reads the payload of the record `header` frames into scratch_ and
  // verifies its checksum.
  RecordView ReadPayload(std::uint64_t r, std::uint64_t offset,
                         const RecordHeader& header) const;
  // Reads every record header in file order, calling fn(r, offset,
  // header), then checks that the last record ends at end of file.
  template <typename Fn>
  void WalkHeaders(Fn&& fn) const;

  static constexpr std::uint64_t kByOffset = ~std::uint64_t{0};

  std::string path_;
  mutable std::vector<unsigned char> scratch_;  // payload buffer
  std::uint64_t size_ = 0;  // file size when opened
  int fd_ = -1;
  std::uint32_t version_ = 0;
  std::uint64_t feature_hash_ = 0;
  std::uint64_t count_ = 0;
  std::uint32_t first_record_type_ = 0;  // 0 when the store is empty
};

/// ---- Sharded stores --------------------------------------------------------

/// Resolves a manifest part's file name next to the manifest itself.
std::string StorePartPath(const std::string& manifest_path,
                          const std::string& part_file);

/// Opens the files of the dataset store at `path` one at a time, in order,
/// and calls fn(reader, listed) on each: a single-file store is its own
/// only file (`listed` null); a sharded store's files are its manifest's
/// parts (`listed` their manifest entry). Before it opens a part it checks
/// that the part exists and has the listed byte size, and before it calls
/// fn that the part holds the listed record count; any mismatch or missing
/// part throws StoreError. The records-region checksum is fn's to verify,
/// since only a full read can.
void ForEachStorePart(
    const std::string& path,
    const std::function<void(const DatasetReader& reader,
                             const StorePartInfo* listed)>& fn);

/// Reads a dataset store — sharded or single-file — into StoreContents.
/// For sharded stores every part's existence, byte size, record count, and
/// records-region checksum are verified against the manifest; any mismatch
/// or missing part throws StoreError. This is the load path LoadOrBuild*
/// uses.
StoreContents ReadStoreContents(const std::string& path);

/// ---- Record-level decode (shared with dataset/streaming) -------------------

/// The shared kernel graphs of one store file, by dictionary index. The
/// whole-file readers (ReadAll, ReadStoreContents) Add every dictionary
/// record in file order; a streaming window Puts only the entries its
/// records reference.
class GraphDict {
 public:
  struct Entry {
    ir::Kernel kernel;
    std::uint64_t fingerprint = 0;
    std::uint64_t structural_sig = 0;
  };

  // Decodes one kGraphDictRecordType record, rejecting trailing bytes and a
  // stored fingerprint that does not match the decoded graph.
  static Entry Decode(const RecordView& record);

  // Decodes one record as the next index (file order).
  void Add(const RecordView& record);
  // Stores `entry` as dictionary index `index`.
  void Put(std::uint32_t index, Entry entry);
  bool contains(std::uint32_t index) const {
    return entries_.contains(index);
  }
  // Throws StoreError, naming `context`, when `index` is absent.
  const Entry& At(std::uint32_t index, const std::string& context) const;

 private:
  std::unordered_map<std::uint32_t, Entry> entries_;
};

/// The leading fields of a tile-kernel or fusion-sample record payload: the
/// graph-dictionary index it references and its program id and family.
struct KernelRecordHead {
  std::uint32_t dict_index = 0;
  int program_id = -1;
  std::string family;
};

/// Reads only a kernel-bearing record's head; throws StoreError on an
/// unknown layout tag or a payload too short to hold the head.
KernelRecordHead PeekKernelRecordHead(const RecordView& record);

/// Throws the corrupt-store StoreError for a record (named by `context`)
/// that references dictionary index `index` when only `preceding`
/// dictionary records come before it in its file.
void CheckDictIndexPrecedes(std::uint32_t index, std::size_t preceding,
                            const std::string& context);

/// Decode one record of the given type; `dict` holds the file's
/// graph-dictionary entries — at least the one the record references.
TileKernelData DecodeTileKernelRecord(const RecordView& record,
                                      const GraphDict& dict);
FusionSample DecodeFusionSampleRecord(const RecordView& record,
                                      const GraphDict& dict);
FeaturizedKernel DecodeFeaturizedRecord(const RecordView& record);
/// The (fingerprint, structural signature) key of a featurized record,
/// from its first 16 payload bytes — no full decode.
std::pair<std::uint64_t, std::uint64_t> PeekFeaturizedKey(
    const RecordView& record);

/// ---- Cache-directory layer (TPUPERF_DATASET_DIR) ---------------------------

/// Key identifying one concrete dataset build: task, simulated target,
/// corpus (names + graph fingerprints + the CorpusOptions that generated
/// it), generation budgets, and the feature configuration. Part of the
/// store file name, so distinct builds never collide in one cache
/// directory. The corpus scale/seed matter because tier extension grows a
/// corpus in place: two scales sharing a program prefix must not alias.
/// DatasetOptions::store_part_bytes is deliberately NOT hashed (sharding
/// is a storage layout, not a different dataset).
std::uint64_t DatasetCacheKey(std::string_view task, std::string_view target,
                              std::span<const ir::Program> corpus,
                              const DatasetOptions& options);

/// "<dir>/<task>_<key as 16 hex digits>.tpds".
std::string StorePath(const std::string& dir, std::string_view task,
                      std::uint64_t key);

struct StoreLoadStats {
  bool cache_hit = false;
  std::string path;       // file consulted (empty when no cache dir)
  double seconds = 0;     // wall time to load (hit) or build+write (miss)
};

/// Loads the tile-size dataset for (corpus, options, simulator target) from
/// `cache_dir` when a store exists; otherwise builds it in-process,
/// featurizes every unique kernel, and writes the store for the next run
/// (sharded when options.store_part_bytes > 0). An empty `cache_dir` means
/// plain in-process generation with no I/O and no featurization. A present
/// but corrupt store throws StoreError rather than silently rebuilding.
/// `features` (optional) receives the featurized records, to hand to a
/// core::PreparedCache as its feature source.
TileDataset LoadOrBuildTileDataset(
    const std::string& cache_dir, std::span<const ir::Program> corpus,
    const sim::TpuSimulator& simulator, const DatasetOptions& options,
    std::shared_ptr<StoredFeatures>* features = nullptr,
    StoreLoadStats* stats = nullptr);

/// Fusion-task counterpart of LoadOrBuildTileDataset.
FusionDataset LoadOrBuildFusionDataset(
    const std::string& cache_dir, std::span<const ir::Program> corpus,
    const sim::TpuSimulator& simulator,
    const analytical::AnalyticalModel& analytical,
    const DatasetOptions& options,
    std::shared_ptr<StoredFeatures>* features = nullptr,
    StoreLoadStats* stats = nullptr);

}  // namespace tpuperf::data
