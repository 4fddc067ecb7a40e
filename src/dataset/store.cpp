#include "dataset/store.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <utility>

#include "core/fault_injection.h"
#include "sim/hash.h"

#if !defined(__unix__) && !defined(__APPLE__)
#error "the dataset store needs POSIX file I/O (open/pread)"
#endif
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace tpuperf::data {
namespace {

// Enc/Dec/Fnv1a64 live in dataset/wire.h (shared with serve's snapshots).

std::uint64_t HashString(std::string_view s) noexcept {
  return Fnv1a64(s.data(), s.size());
}

constexpr std::size_t kHeaderSize = kStoreHeaderSize;
constexpr std::size_t kRecordCountOffset = 20;
constexpr std::size_t kRecordHeaderSize = kStoreRecordHeaderSize;

// ---- IR serialization ------------------------------------------------------

void EncodeShape(Enc& e, const ir::Shape& shape) {
  e.U32(static_cast<std::uint32_t>(shape.rank()));
  for (const std::int64_t d : shape.dims()) e.I64(d);
  for (const int l : shape.minor_to_major()) e.I32(l);
  e.U8(static_cast<std::uint8_t>(shape.element_type()));
}

ir::Shape DecodeShape(Dec& d) {
  const std::uint32_t rank = d.U32();
  if (rank > 64) d.Fail("implausible shape rank " + std::to_string(rank));
  std::vector<std::int64_t> dims(rank);
  for (auto& v : dims) v = d.I64();
  std::vector<int> layout(rank);
  for (auto& v : layout) v = d.I32();
  const std::uint8_t etype = d.U8();
  if (etype > static_cast<std::uint8_t>(ir::ElementType::kPred)) {
    d.Fail("unknown element type " + std::to_string(etype));
  }
  ir::Shape shape(std::move(dims), static_cast<ir::ElementType>(etype));
  shape.set_minor_to_major(std::move(layout));
  return shape;
}

void EncodeGraph(Enc& e, const ir::Graph& graph) {
  e.U32(static_cast<std::uint32_t>(graph.num_nodes()));
  for (const ir::Node& n : graph.nodes()) {
    e.U8(static_cast<std::uint8_t>(n.op));
    EncodeShape(e, n.shape);
    e.U32(static_cast<std::uint32_t>(n.operands.size()));
    for (const ir::NodeId id : n.operands) e.I32(id);
    e.U32(static_cast<std::uint32_t>(n.window.dims.size()));
    for (const ir::WindowDim& w : n.window.dims) {
      e.I64(w.size);
      e.I64(w.stride);
      e.I64(w.padding_low);
      e.I64(w.padding_high);
      e.I64(w.dilation);
    }
    e.U32(static_cast<std::uint32_t>(n.reduce_dims.size()));
    for (const int r : n.reduce_dims) e.I32(r);
    e.I64(n.feature_in);
    e.I64(n.feature_out);
    e.U8(n.is_output ? 1 : 0);
  }
}

ir::Graph DecodeGraph(Dec& d) {
  const std::uint32_t num_nodes = d.U32();
  d.RequireCount(num_nodes, 16, "node");
  ir::Graph graph;
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    ir::Node n;
    const std::uint8_t op = d.U8();
    if (op >= static_cast<std::uint8_t>(ir::kNumOpCodes)) {
      d.Fail("unknown opcode " + std::to_string(op) + " in node " +
             std::to_string(i));
    }
    n.op = static_cast<ir::OpCode>(op);
    n.shape = DecodeShape(d);
    const std::uint32_t num_operands = d.U32();
    d.RequireCount(num_operands, 4, "operand");
    n.operands.resize(num_operands);
    for (auto& id : n.operands) id = d.I32();
    const std::uint32_t num_window = d.U32();
    d.RequireCount(num_window, 40, "window dim");
    n.window.dims.resize(num_window);
    for (auto& w : n.window.dims) {
      w.size = d.I64();
      w.stride = d.I64();
      w.padding_low = d.I64();
      w.padding_high = d.I64();
      w.dilation = d.I64();
    }
    const std::uint32_t num_reduce = d.U32();
    d.RequireCount(num_reduce, 4, "reduce dim");
    n.reduce_dims.resize(num_reduce);
    for (auto& r : n.reduce_dims) r = d.I32();
    n.feature_in = d.I64();
    n.feature_out = d.I64();
    n.is_output = d.U8() != 0;
    graph.AddNode(std::move(n));  // re-validates the operand-order invariant
  }
  return graph;
}

void EncodeTile(Enc& e, const ir::TileConfig& tile) {
  e.U32(static_cast<std::uint32_t>(tile.dims.size()));
  for (const std::int64_t v : tile.dims) e.I64(v);
}

ir::TileConfig DecodeTile(Dec& d) {
  const std::uint32_t rank = d.U32();
  if (rank > 64) d.Fail("implausible tile rank " + std::to_string(rank));
  ir::TileConfig tile;
  tile.dims.resize(rank);
  for (auto& v : tile.dims) v = d.I64();
  return tile;
}

ir::KernelKind DecodeKernelKind(Dec& d) {
  const std::uint8_t kind = d.U8();
  if (kind > static_cast<std::uint8_t>(ir::KernelKind::kDataFormatting)) {
    d.Fail("unknown kernel kind " + std::to_string(kind));
  }
  return static_cast<ir::KernelKind>(kind);
}

// Layout tag of kernel-bearing payloads: the kernel is a reference into the
// file's graph dictionary. Tag 0 (the kernel stored inline) was never
// written by a v3 writer and is rejected like any other unknown tag.
constexpr std::uint8_t kKernelDictRefTag = 1;

// Dictionary reference (tag 1): graph + kind + fingerprint live in a
// kGraphDictRecordType record of the same file; only the per-sample
// fields are repeated here.
void EncodeKernelRecordRef(Enc& e, const KernelRecord& record,
                           std::uint32_t dict_index) {
  e.U8(kKernelDictRefTag);
  e.U32(dict_index);
  e.I32(record.program_id);
  e.Str(record.family);
}

// Reads the layout tag and the dictionary index it carries.
std::uint32_t DecodeKernelDictIndex(Dec& d) {
  const std::uint8_t tag = d.U8();
  if (tag != kKernelDictRefTag) {
    d.Fail("unknown kernel-record layout tag " + std::to_string(tag));
  }
  return d.U32();
}

KernelRecord DecodeKernelRecord(Dec& d, const GraphDict& dict) {
  const std::uint32_t index = DecodeKernelDictIndex(d);
  const GraphDict::Entry& entry = dict.At(index, d.context());
  KernelRecord record;
  record.kernel = entry.kernel;
  record.fingerprint = entry.fingerprint;
  record.signature = entry.structural_sig;
  record.program_id = d.I32();
  record.family = d.Str();
  return record;
}

// ---- Record payloads -------------------------------------------------------

std::string EncodeProgramPayload(const ProgramInfo& p) {
  Enc e;
  e.I32(p.program_id);
  e.Str(p.name);
  e.Str(p.family);
  return e.bytes();
}

ProgramInfo DecodeProgramPayload(Dec& d) {
  ProgramInfo p;
  p.program_id = d.I32();
  p.name = d.Str();
  p.family = d.Str();
  return p;
}

std::string EncodeGraphDictPayload(const KernelRecord& record) {
  Enc e;
  EncodeGraph(e, record.kernel.graph);
  e.U8(static_cast<std::uint8_t>(record.kernel.kind));
  e.U64(record.fingerprint);
  return e.bytes();
}

std::string EncodeTileKernelPayload(const TileKernelData& k,
                                    std::uint32_t dict_index) {
  Enc e;
  EncodeKernelRecordRef(e, k.record, dict_index);
  if (k.configs.size() != k.runtimes.size()) {
    throw StoreError("tile kernel has " + std::to_string(k.configs.size()) +
                     " configs but " + std::to_string(k.runtimes.size()) +
                     " runtimes; refusing to serialize");
  }
  e.U32(static_cast<std::uint32_t>(k.configs.size()));
  for (std::size_t i = 0; i < k.configs.size(); ++i) {
    EncodeTile(e, k.configs[i]);
    e.F64(k.runtimes[i]);
  }
  return e.bytes();
}

TileKernelData DecodeTileKernelPayload(Dec& d, const GraphDict& dict) {
  TileKernelData k;
  k.record = DecodeKernelRecord(d, dict);
  const std::uint32_t count = d.U32();
  k.configs.reserve(count);
  k.runtimes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    k.configs.push_back(DecodeTile(d));
    k.runtimes.push_back(d.F64());
  }
  return k;
}

std::string EncodeFusionSamplePayload(const FusionSample& s,
                                      std::uint32_t dict_index) {
  Enc e;
  EncodeKernelRecordRef(e, s.record, dict_index);
  EncodeTile(e, s.tile);
  e.F64(s.runtime);
  e.U8(s.from_default_config ? 1 : 0);
  return e.bytes();
}

FusionSample DecodeFusionSamplePayload(Dec& d, const GraphDict& dict) {
  FusionSample s;
  s.record = DecodeKernelRecord(d, dict);
  s.tile = DecodeTile(d);
  s.runtime = d.F64();
  s.from_default_config = d.U8() != 0;
  return s;
}

std::string EncodeFeaturizedPayload(const FeaturizedKernel& fk) {
  Enc e;
  e.U64(fk.fingerprint);
  e.U64(fk.structural_sig);
  const feat::KernelFeatures& kf = fk.features;
  const auto n = static_cast<std::uint32_t>(kf.opcode_ids.size());
  e.U32(n);
  e.U32(static_cast<std::uint32_t>(feat::kNodeScalarFeatures));
  for (const int id : kf.opcode_ids) e.I32(id);
  for (const auto& row : kf.node_scalars) {
    if (row.size() != static_cast<std::size_t>(feat::kNodeScalarFeatures)) {
      throw StoreError("featurized record has a node-scalar row of width " +
                       std::to_string(row.size()) + "; refusing to serialize");
    }
    for (const double v : row) e.F64(v);
  }
  // Adjacency (operand lists) in CSR form: row_ptr then column indices.
  std::uint32_t nnz = 0;
  for (const auto& ops : kf.operand_lists) {
    nnz += static_cast<std::uint32_t>(ops.size());
  }
  e.U32(nnz);
  std::uint32_t row_start = 0;
  e.U32(0);
  for (const auto& ops : kf.operand_lists) {
    row_start += static_cast<std::uint32_t>(ops.size());
    e.U32(row_start);
  }
  for (const auto& ops : kf.operand_lists) {
    for (const int id : ops) e.I32(id);
  }
  e.U32(static_cast<std::uint32_t>(kf.static_perf.size()));
  for (const double v : kf.static_perf) e.F64(v);
  return e.bytes();
}

FeaturizedKernel DecodeFeaturizedPayload(Dec& d) {
  FeaturizedKernel fk;
  fk.fingerprint = d.U64();
  fk.structural_sig = d.U64();
  const std::uint32_t n = d.U32();
  const std::uint32_t width = d.U32();
  if (width != static_cast<std::uint32_t>(feat::kNodeScalarFeatures)) {
    d.Fail("node-scalar width " + std::to_string(width) +
           " does not match the current featurizer (" +
           std::to_string(feat::kNodeScalarFeatures) + ")");
  }
  d.RequireCount(n, 4, "featurized node");
  feat::KernelFeatures& kf = fk.features;
  kf.opcode_ids.resize(n);
  for (auto& id : kf.opcode_ids) {
    id = d.I32();
    if (id < 0 || id >= ir::kNumOpCodes) {
      d.Fail("featurized opcode id " + std::to_string(id) + " out of range");
    }
  }
  d.RequireCount(static_cast<std::uint64_t>(n) * width, 8, "node scalar");
  kf.node_scalars.assign(n, std::vector<double>(
                                static_cast<std::size_t>(width)));
  for (auto& row : kf.node_scalars) {
    for (auto& v : row) v = d.F64();
  }
  const std::uint32_t nnz = d.U32();
  d.RequireCount(nnz, 4, "CSR edge");
  std::vector<std::uint32_t> row_ptr(n + 1);
  for (auto& v : row_ptr) v = d.U32();
  if (row_ptr.front() != 0 || row_ptr.back() != nnz) {
    d.Fail("CSR row pointers do not cover the stored edges");
  }
  kf.operand_lists.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (row_ptr[i + 1] < row_ptr[i]) d.Fail("CSR row pointers not monotone");
    kf.operand_lists[i].resize(row_ptr[i + 1] - row_ptr[i]);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (auto& id : kf.operand_lists[i]) {
      id = d.I32();
      if (id < 0 || static_cast<std::uint32_t>(id) >= i) {
        d.Fail("CSR operand " + std::to_string(id) + " of node " +
               std::to_string(i) + " breaks the topological invariant");
      }
    }
  }
  const std::uint32_t perf = d.U32();
  if (perf != static_cast<std::uint32_t>(feat::kStaticPerfFeatures)) {
    d.Fail("static-perf width " + std::to_string(perf) +
           " does not match the current featurizer");
  }
  kf.static_perf.resize(perf);
  for (auto& v : kf.static_perf) v = d.F64();
  return fk;
}

// Decodes one record into StoreContents, threading the file's graph
// dictionary. Shared by ReadAll (single file) and ReadStoreContents
// (per part, merging in record order).
void DecodeRecordInto(StoreContents& out, const RecordView& view,
                      GraphDict& dict) {
  Dec d(view.payload.data(), view.payload.size(), view.context);
  try {
    switch (view.type) {
      case kProgramRecordType:
        out.programs.push_back(DecodeProgramPayload(d));
        break;
      case kTileKernelRecordType:
        out.tile.kernels.push_back(DecodeTileKernelPayload(d, dict));
        break;
      case kFusionSampleRecordType:
        out.fusion.samples.push_back(DecodeFusionSamplePayload(d, dict));
        break;
      case kFeaturizedRecordType:
        out.features->Add(DecodeFeaturizedPayload(d));
        break;
      case kGraphDictRecordType:
        dict.Add(view);
        return;  // GraphDict::Add runs its own trailing-bytes check
      case kManifestRecordType:
        throw StoreError(view.context +
                         ": sharded-store manifest record inside a plain "
                         "dataset read; open this path with "
                         "data::ReadStoreContents instead");
      case kScalerRecordType:
      case kModelConfigRecordType:
      case kModelParamsRecordType:
        throw StoreError(view.context + ": model-snapshot record (type " +
                         std::to_string(view.type) +
                         ") inside a dataset read; open this file with "
                         "serve::LoadModelSnapshot instead");
      default:
        throw StoreError(view.context + ": unknown record type " +
                         std::to_string(view.type));
    }
  } catch (const StoreError&) {
    throw;
  } catch (const std::exception& e) {
    throw StoreError(view.context + ": " + e.what());
  }
  if (!d.AtEnd()) {
    throw StoreError(view.context + ": trailing bytes inside record payload");
  }
}

// ---- Shared build-path helpers ---------------------------------------------

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Featurizes every unique (fingerprint, signature) kernel once, in
// first-seen record order.
std::shared_ptr<StoredFeatures> FeaturizeUnique(
    const std::vector<const KernelRecord*>& records) {
  auto out = std::make_shared<StoredFeatures>();
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const KernelRecord* rec : records) {
    if (!seen.insert({rec->fingerprint, rec->signature}).second) continue;
    FeaturizedKernel fk;
    fk.fingerprint = rec->fingerprint;
    fk.structural_sig = rec->signature;
    fk.features = feat::FeaturizeKernel(rec->kernel.graph);
    out->Add(std::move(fk));
  }
  return out;
}

void VerifyPrograms(const StoreContents& contents,
                    std::span<const ir::Program> corpus,
                    const std::string& path) {
  if (contents.programs.size() != corpus.size()) {
    throw StoreError(path + ": store was built from a different corpus (" +
                     std::to_string(contents.programs.size()) +
                     " programs stored, " + std::to_string(corpus.size()) +
                     " expected)");
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const ProgramInfo& p = contents.programs[i];
    if (p.program_id != static_cast<int>(i) || p.name != corpus[i].name ||
        p.family != corpus[i].family) {
      throw StoreError(path + ": program " + std::to_string(i) +
                       " is \"" + p.name + "\" in the store but \"" +
                       corpus[i].name + "\" in the generating corpus");
    }
  }
}

void FillStats(StoreLoadStats* stats, bool hit, std::string path,
               Clock::time_point start) {
  if (stats == nullptr) return;
  stats->cache_hit = hit;
  stats->path = std::move(path);
  stats->seconds = Seconds(start);
}

}  // namespace

// ---- StoredFeatures --------------------------------------------------------

void StoredFeatures::Add(FeaturizedKernel kernel) {
  if (Find(kernel.fingerprint, kernel.structural_sig) != nullptr) return;
  entries_.push_back(std::move(kernel));
  const FeaturizedKernel& stored = entries_.back();
  by_fingerprint_[stored.fingerprint].push_back(&stored);
}

const FeaturizedKernel* StoredFeatures::Find(
    std::uint64_t fingerprint, std::uint64_t structural_sig) const {
  const auto it = by_fingerprint_.find(fingerprint);
  if (it == by_fingerprint_.end()) return nullptr;
  for (const FeaturizedKernel* fk : it->second) {
    if (fk->structural_sig == structural_sig) return fk;
  }
  return nullptr;
}

std::optional<feat::KernelFeatures> StoredFeatures::Lookup(
    std::uint64_t fingerprint, std::uint64_t structural_sig) const {
  const FeaturizedKernel* fk = Find(fingerprint, structural_sig);
  if (fk == nullptr) return std::nullopt;
  return fk->features;
}

// ---- GraphDict -------------------------------------------------------------

GraphDict::Entry GraphDict::Decode(const RecordView& record) {
  Dec d(record.payload.data(), record.payload.size(), record.context);
  Entry entry;
  entry.kernel.graph = DecodeGraph(d);
  entry.kernel.kind = DecodeKernelKind(d);
  entry.fingerprint = d.U64();
  if (!d.AtEnd()) d.Fail("trailing bytes inside record payload");
  // One walk of the graph yields both hashes.
  const ir::Graph::Hashes hashes =
      entry.kernel.graph.FingerprintAndSignature();
  if (entry.fingerprint != hashes.fingerprint) {
    d.Fail("stored dictionary fingerprint does not match the decoded graph "
           "(serialization drift or tampering)");
  }
  entry.structural_sig = hashes.signature;
  return entry;
}

void GraphDict::Add(const RecordView& record) {
  Put(static_cast<std::uint32_t>(entries_.size()), Decode(record));
}

void GraphDict::Put(std::uint32_t index, Entry entry) {
  entries_.insert_or_assign(index, std::move(entry));
}

const GraphDict::Entry& GraphDict::At(std::uint32_t index,
                                      const std::string& context) const {
  const auto it = entries_.find(index);
  if (it != entries_.end()) return it->second;
  // A file-order dictionary holds exactly the entries that precede the
  // record, so its misses are references past them.
  CheckDictIndexPrecedes(index, entries_.size(), context);
  throw StoreError(context + ": graph-dictionary index " +
                   std::to_string(index) + " was not loaded");
}

KernelRecordHead PeekKernelRecordHead(const RecordView& record) {
  Dec d(record.payload.data(), record.payload.size(), record.context);
  KernelRecordHead head;
  head.dict_index = DecodeKernelDictIndex(d);
  head.program_id = d.I32();
  head.family = d.Str();
  return head;
}

void CheckDictIndexPrecedes(std::uint32_t index, std::size_t preceding,
                            const std::string& context) {
  if (index >= preceding) {
    throw StoreError(context + ": kernel record references graph-dictionary "
                     "index " + std::to_string(index) + " but only " +
                     std::to_string(preceding) +
                     " dictionary records precede it (corrupt store)");
  }
}

// ---- Record-level decode entry points --------------------------------------

TileKernelData DecodeTileKernelRecord(const RecordView& record,
                                      const GraphDict& dict) {
  Dec d(record.payload.data(), record.payload.size(), record.context);
  TileKernelData k = DecodeTileKernelPayload(d, dict);
  if (!d.AtEnd()) d.Fail("trailing bytes inside record payload");
  return k;
}

FusionSample DecodeFusionSampleRecord(const RecordView& record,
                                      const GraphDict& dict) {
  Dec d(record.payload.data(), record.payload.size(), record.context);
  FusionSample s = DecodeFusionSamplePayload(d, dict);
  if (!d.AtEnd()) d.Fail("trailing bytes inside record payload");
  return s;
}

FeaturizedKernel DecodeFeaturizedRecord(const RecordView& record) {
  Dec d(record.payload.data(), record.payload.size(), record.context);
  FeaturizedKernel fk = DecodeFeaturizedPayload(d);
  if (!d.AtEnd()) d.Fail("trailing bytes inside record payload");
  return fk;
}

std::pair<std::uint64_t, std::uint64_t> PeekFeaturizedKey(
    const RecordView& record) {
  Dec d(record.payload.data(), record.payload.size(), record.context);
  const std::uint64_t fingerprint = d.U64();
  const std::uint64_t sig = d.U64();
  return {fingerprint, sig};
}

// ---- Format-level helpers --------------------------------------------------

std::uint64_t FeatureConfigHash() {
  return sim::HashCombine(
      0xFEA701ull, static_cast<std::uint64_t>(feat::kNodeScalarFeatures),
      static_cast<std::uint64_t>(feat::kTileFeatures),
      static_cast<std::uint64_t>(feat::kStaticPerfFeatures),
      static_cast<std::uint64_t>(ir::kMaxEncodedRank),
      static_cast<std::uint64_t>(ir::kNumOpCodes));
}

// ---- DatasetWriter ---------------------------------------------------------
//
// The writer drives a raw file descriptor with explicit short-write/EINTR
// loops: ::write may transfer fewer bytes than asked (or fail with EINTR
// when a signal lands mid-call), and std::ofstream gives no way to retry
// the remainder — it just poisons the stream. Every syscall result is
// checked; failures throw StoreError naming the file and errno.

struct DatasetWriter::Part {
  std::string tmp_path;
  std::string final_path;
  std::string file;  // final basename, for the manifest
  int fd = -1;
  std::uint64_t records = 0;
  std::uint64_t bytes = kHeaderSize;
  std::uint64_t fnv = kFnv1a64Seed;  // running hash of the records region

  void Write(const char* data, std::size_t size);
};

namespace {

int OpenForWrite(const std::string& path) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

// Writes all `size` bytes to `fd`, looping over short writes and retrying
// EINTR; throws StoreError if the kernel reports an error or no progress.
void WriteAll(int fd, const char* data, std::size_t size,
              const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StoreError(path + ": write failed (" +
                       std::string(std::strerror(errno)) + ")");
    }
    if (n == 0) {
      // Regular files never return 0 from a nonzero-size write, but a
      // surprise here must not become an infinite loop.
      throw StoreError(path + ": write made no progress");
    }
    done += static_cast<std::size_t>(n);
  }
}

void WarnClose(int fd, const std::string& path) {
  if (::close(fd) != 0) {
    std::fprintf(stderr, "[tpuperf] warning: close(%s) failed: %s\n",
                 path.c_str(), std::strerror(errno));
  }
}

// Unique temporary suffix per writer part: concurrent cold builds of the
// same key (shared cache dirs) each complete their own file, and the atomic
// rename makes the last finisher win with a consistent store.
std::string TmpSuffix(const void* self) {
  return ".tmp." +
         std::to_string(static_cast<unsigned long long>(
             Clock::now().time_since_epoch().count())) +
         "." + std::to_string(reinterpret_cast<std::uintptr_t>(self));
}

}  // namespace

void DatasetWriter::Part::Write(const char* data, std::size_t size) {
  WriteAll(fd, data, size, tmp_path);
}

DatasetWriter::DatasetWriter(std::string path, std::uint64_t max_part_bytes)
    : path_(std::move(path)), max_part_bytes_(max_part_bytes) {
  OpenPart();
}

DatasetWriter::~DatasetWriter() {
  if (part_ != nullptr) {
    WarnClose(part_->fd, part_->tmp_path);
    std::error_code ec;
    std::filesystem::remove(part_->tmp_path, ec);
    part_.reset();
  }
  if (!finished_) {
    // Sharded mode: parts already renamed into place are orphans without a
    // manifest; remove them so an aborted build leaves nothing behind.
    for (const StorePartInfo& info : parts_) {
      std::error_code ec;
      std::filesystem::remove(
          StorePartPath(path_, info.file), ec);
    }
  }
}

void DatasetWriter::OpenPart() {
  auto part = std::make_unique<Part>();
  if (max_part_bytes_ > 0) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".p%03zu", parts_.size());
    part->final_path = path_ + suffix;
  } else {
    part->final_path = path_;
  }
  part->file = std::filesystem::path(part->final_path).filename().string();
  part->tmp_path = part->final_path + TmpSuffix(this);
  Enc e;
  e.U32(kStoreFormatVersion);
  e.U64(FeatureConfigHash());
  e.U64(0);  // record count, patched by ClosePart()
  const int fd = OpenForWrite(part->tmp_path);
  if (fd < 0) {
    throw StoreError(part->tmp_path + ": cannot open for writing (" +
                     std::string(std::strerror(errno)) + ")");
  }
  part->fd = fd;
  try {
    WriteAll(fd, kStoreMagic, sizeof(kStoreMagic), part->tmp_path);
    WriteAll(fd, e.bytes().data(), e.bytes().size(), part->tmp_path);
  } catch (...) {
    WarnClose(fd, part->tmp_path);
    std::error_code ec;
    std::filesystem::remove(part->tmp_path, ec);
    throw;
  }
  part_ = std::move(part);
  dict_.clear();  // dictionaries never span part files
}

void DatasetWriter::ClosePart() {
  if (part_ == nullptr) throw StoreError(path_ + ": writer has no open file");
  Enc e;
  e.U64(part_->records);
  const int fd = part_->fd;
  if (::lseek(fd, static_cast<off_t>(kRecordCountOffset), SEEK_SET) < 0) {
    throw StoreError(part_->tmp_path + ": seek to record count failed (" +
                     std::string(std::strerror(errno)) + ")");
  }
  WriteAll(fd, e.bytes().data(), e.bytes().size(), part_->tmp_path);
  part_->fd = -1;
  // A failed close can mean the kernel could not commit buffered data;
  // surfacing it here keeps a corrupt store from being renamed into place.
  if (::close(fd) != 0) {
    throw StoreError(part_->tmp_path + ": close failed (" +
                     std::string(std::strerror(errno)) + ")");
  }
  std::error_code ec;
  std::filesystem::rename(part_->tmp_path, part_->final_path, ec);
  if (ec) {
    throw StoreError(part_->final_path + ": rename from temporary failed (" +
                     ec.message() + ")");
  }
  parts_.push_back(StorePartInfo{part_->file, part_->records, part_->bytes,
                                 part_->fnv});
  part_.reset();
}

void DatasetWriter::MaybeRoll() {
  if (max_part_bytes_ == 0 || part_ == nullptr) return;
  if (part_->records == 0 || part_->bytes < max_part_bytes_) return;
  ClosePart();
  OpenPart();
}

void DatasetWriter::WriteRecord(std::uint32_t type,
                                const std::string& payload) {
  if (finished_ || part_ == nullptr) {
    throw StoreError(path_ + ": writer already finished");
  }
  Enc header;
  header.U32(type);
  header.U64(payload.size());
  header.U64(Fnv1a64(payload.data(), payload.size()));
  part_->Write(header.bytes().data(), header.bytes().size());
  part_->Write(payload.data(), payload.size());
  part_->fnv = Fnv1a64Continue(part_->fnv, header.bytes().data(),
                               header.bytes().size());
  part_->fnv = Fnv1a64Continue(part_->fnv, payload.data(), payload.size());
  part_->bytes += kRecordHeaderSize + payload.size();
  ++part_->records;
  ++count_;
}

std::uint32_t DatasetWriter::DictIndexFor(const KernelRecord& record) {
  const auto key = std::make_pair(record.fingerprint, record.signature);
  const auto it = dict_.find(key);
  if (it != dict_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(dict_.size());
  WriteRecord(kGraphDictRecordType, EncodeGraphDictPayload(record));
  dict_.emplace(key, index);
  return index;
}

void DatasetWriter::AddRaw(std::uint32_t type, const std::string& payload) {
  MaybeRoll();
  WriteRecord(type, payload);
}

void DatasetWriter::Add(const ProgramInfo& program) {
  MaybeRoll();
  WriteRecord(kProgramRecordType, EncodeProgramPayload(program));
}

void DatasetWriter::Add(const TileKernelData& kernel) {
  // Roll BEFORE the dictionary lookup so a freshly emitted dictionary
  // record and its referencing kernel record always land in the same part.
  MaybeRoll();
  const std::uint32_t dict_index = DictIndexFor(kernel.record);
  WriteRecord(kTileKernelRecordType,
              EncodeTileKernelPayload(kernel, dict_index));
}

void DatasetWriter::Add(const FusionSample& sample) {
  MaybeRoll();
  const std::uint32_t dict_index = DictIndexFor(sample.record);
  WriteRecord(kFusionSampleRecordType,
              EncodeFusionSamplePayload(sample, dict_index));
}

void DatasetWriter::Add(const FeaturizedKernel& kernel) {
  MaybeRoll();
  WriteRecord(kFeaturizedRecordType, EncodeFeaturizedPayload(kernel));
}

std::size_t DatasetWriter::part_count() const noexcept {
  return parts_.size() + (part_ != nullptr ? 1 : 0);
}

void DatasetWriter::Finish() {
  if (finished_) return;
  ClosePart();
  if (max_part_bytes_ > 0) {
    // Commit point of a sharded store: the manifest is renamed into place
    // only after every part. Until then readers see no store at all.
    Enc e;
    e.U32(static_cast<std::uint32_t>(parts_.size()));
    for (const StorePartInfo& info : parts_) {
      e.Str(info.file);
      e.U64(info.records);
      e.U64(info.bytes);
      e.U64(info.records_fnv);
    }
    DatasetWriter manifest(path_);
    manifest.AddRaw(kManifestRecordType, e.bytes());
    manifest.Finish();
  }
  finished_ = true;
}

// ---- DatasetReader ---------------------------------------------------------
//
// Every read is a pread into memory the reader owns: the file is never
// buffered whole (memory stays O(largest record)), filtered walks seek past
// unwanted payloads, and a file that shrinks under the reader makes the
// read throw at end of file instead of faulting.

DatasetReader::DatasetReader(std::string path) : path_(std::move(path)) {
  do {
    fd_ = ::open(path_.c_str(), O_RDONLY);
  } while (fd_ < 0 && errno == EINTR);
  if (fd_ < 0) {
    throw StoreError(path_ + ": cannot open (" +
                     std::string(std::strerror(errno)) + ")");
  }
  try {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) {
      throw StoreError(path_ + ": fstat failed (" +
                       std::string(std::strerror(errno)) + ")");
    }
    size_ = st.st_size > 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
    ReadFileHeader();
  } catch (...) {
    WarnClose(fd_, path_);  // the destructor does not run for a throw here
    throw;
  }
}

DatasetReader::~DatasetReader() { WarnClose(fd_, path_); }

void DatasetReader::ReadFileHeader() {
  if (size_ < kHeaderSize) {
    throw StoreError(path_ + ": truncated header (" + std::to_string(size_) +
                     " bytes, need " + std::to_string(kHeaderSize) + ")");
  }
  unsigned char hdr[kHeaderSize];
  ReadBytes(0, kHeaderSize, hdr);
  if (std::memcmp(hdr, kStoreMagic, sizeof(kStoreMagic)) != 0) {
    throw StoreError(path_ + ": bad magic — not a tpuperf dataset store");
  }
  version_ = ReadU32At(hdr + 8);
  if (version_ < kStoreFormatVersion) {
    throw StoreError(path_ + ": format version " + std::to_string(version_) +
                     " predates this build's version " +
                     std::to_string(kStoreFormatVersion) +
                     "; regenerate the store");
  }
  if (version_ > kStoreFormatVersion) {
    throw StoreError(path_ + ": format version " + std::to_string(version_) +
                     " was written by a newer tpuperf (this build reads up "
                     "to version " +
                     std::to_string(kStoreFormatVersion) +
                     "); refusing to guess at its layout");
  }
  feature_hash_ = ReadU64At(hdr + 12);
  if (feature_hash_ != FeatureConfigHash()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "feature-config hash mismatch (store 0x%016llx, current "
                  "0x%016llx)",
                  static_cast<unsigned long long>(feature_hash_),
                  static_cast<unsigned long long>(FeatureConfigHash()));
    throw StoreError(path_ + ": " + buf +
                     " — the featurizer layout changed; regenerate the "
                     "dataset cache");
  }
  count_ = ReadU64At(hdr + kRecordCountOffset);
  // Peek the first record's type for manifest detection (cheap: 4 bytes).
  if (count_ > 0 && size_ >= kHeaderSize + 4) {
    unsigned char type[4];
    ReadBytes(kHeaderSize, sizeof(type), type);
    first_record_type_ = ReadU32At(type);
  }
}

void DatasetReader::ReadBytes(std::uint64_t offset, std::size_t size,
                              unsigned char* out) const {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd_, out + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StoreError(path_ + ": read failed at byte " +
                       std::to_string(offset + done) + " (" +
                       std::string(std::strerror(errno)) + ")");
    }
    if (n == 0) {
      throw StoreError(path_ + ": unexpected end of file at byte " +
                       std::to_string(offset + done) +
                       " (file shrank mid-read?)");
    }
    done += static_cast<std::size_t>(n);
  }
}

std::string DatasetReader::RecordContext(std::uint64_t r,
                                         std::uint64_t offset) const {
  return r == kByOffset ? path_ + ": record at byte " + std::to_string(offset)
                        : path_ + ": record " + std::to_string(r);
}

DatasetReader::RecordHeader DatasetReader::ReadHeader(
    std::uint64_t r, std::uint64_t offset) const {
  if (offset > size_ || size_ - offset < kRecordHeaderSize) {
    throw StoreError(RecordContext(r, offset) +
                     ": record header runs past end of file "
                     "(truncated store)");
  }
  unsigned char bytes[kRecordHeaderSize];
  ReadBytes(offset, kRecordHeaderSize, bytes);
  const RecordHeader header{ReadU32At(bytes), ReadU64At(bytes + 4),
                            ReadU64At(bytes + 12)};
  if (header.payload_size > size_ - (offset + kRecordHeaderSize)) {
    throw StoreError(RecordContext(r, offset) + ": payload of " +
                     std::to_string(header.payload_size) +
                     " bytes runs past end of file (truncated store)");
  }
  return header;
}

RecordView DatasetReader::ReadPayload(std::uint64_t r, std::uint64_t offset,
                                      const RecordHeader& header) const {
  RecordView view;
  view.type = header.type;
  view.offset = offset;
  view.context = RecordContext(r, offset);
  const auto size = static_cast<std::size_t>(header.payload_size);
  if (scratch_.size() < size) scratch_.resize(size);
  ReadBytes(offset + kRecordHeaderSize, size, scratch_.data());
  if (Fnv1a64(scratch_.data(), size) != header.checksum) {
    throw StoreError(view.context + " (type " + std::to_string(header.type) +
                     "): checksum mismatch — corrupted store");
  }
  view.payload = std::span<const unsigned char>(scratch_.data(), size);
  view.checksum = header.checksum;
  return view;
}

template <typename Fn>
void DatasetReader::WalkHeaders(Fn&& fn) const {
  std::uint64_t off = kHeaderSize;
  for (std::uint64_t r = 0; r < count_; ++r) {
    // Models mid-stream truncation: the read aborts with the same diagnostic
    // StoreError contract as a real short file, never a partial load.
    if (core::FaultPointFires("store.short_read")) {
      throw StoreError(RecordContext(r, off) +
                       ": injected short read (fault point store.short_read)");
    }
    const RecordHeader header = ReadHeader(r, off);
    fn(r, off, header);
    off += kRecordHeaderSize + header.payload_size;
  }
  if (off != size_) {
    throw StoreError(path_ + ": " + std::to_string(size_ - off) +
                     " trailing bytes after the last record");
  }
}

bool DatasetReader::sharded_manifest() const noexcept {
  return count_ == 1 && first_record_type_ == kManifestRecordType;
}

void DatasetReader::ForEachRecord(
    const std::function<void(const RecordView&)>& fn,
    std::span<const std::uint32_t> types) const {
  WalkHeaders([&](std::uint64_t r, std::uint64_t off,
                  const RecordHeader& header) {
    // Filtered-out records are skipped by advancing the offset: their
    // payloads are never read (nor checksummed).
    if (types.empty() ||
        std::find(types.begin(), types.end(), header.type) != types.end()) {
      fn(ReadPayload(r, off, header));
    }
  });
}

RecordView DatasetReader::ReadRecordAt(std::uint64_t offset) const {
  return ReadPayload(kByOffset, offset, ReadHeader(kByOffset, offset));
}

namespace {

// Decodes every record of one file into `out`, threading the file's graph
// dictionary. With `region_fnv` it also accumulates the FNV-1a-64 of the
// records region, re-deriving each framing header from its (deterministic)
// encoding and the checksum ReadPayload verified, so the manifest's
// checksum needs no second pass over the file.
void DecodeFileInto(StoreContents& out, const DatasetReader& reader,
                    std::uint64_t* region_fnv) {
  GraphDict dict;
  reader.ForEachRecord([&](const RecordView& view) {
    if (region_fnv != nullptr) {
      Enc hdr;
      hdr.U32(view.type);
      hdr.U64(view.payload.size());
      hdr.U64(view.checksum);
      *region_fnv = Fnv1a64Continue(*region_fnv, hdr.bytes().data(),
                                    hdr.bytes().size());
      *region_fnv = Fnv1a64Continue(*region_fnv, view.payload.data(),
                                    view.payload.size());
    }
    DecodeRecordInto(out, view, dict);
  });
}

// Decodes the manifest record of a sharded store.
std::vector<StorePartInfo> ReadStoreManifest(const DatasetReader& reader) {
  std::vector<StorePartInfo> parts;
  reader.ForEachRecord([&parts](const RecordView& view) {
    Dec d(view.payload.data(), view.payload.size(), view.context);
    const std::uint32_t n = d.U32();
    // Str(>=4) + records(8) + bytes(8) + fnv(8) per part.
    d.RequireCount(n, 28, "manifest part");
    for (std::uint32_t i = 0; i < n; ++i) {
      StorePartInfo part;
      part.file = d.Str();
      part.records = d.U64();
      part.bytes = d.U64();
      part.records_fnv = d.U64();
      if (part.file.empty() || part.file.find('/') != std::string::npos) {
        d.Fail("manifest part name \"" + part.file +
               "\" is not a plain sibling file name");
      }
      parts.push_back(std::move(part));
    }
    if (!d.AtEnd()) d.Fail("trailing bytes inside record payload");
  });
  return parts;
}

}  // namespace

StoreContents DatasetReader::ReadAll() const {
  StoreContents out;
  DecodeFileInto(out, *this, nullptr);
  return out;
}

// ---- Sharded stores --------------------------------------------------------

std::string StorePartPath(const std::string& manifest_path,
                          const std::string& part_file) {
  return (std::filesystem::path(manifest_path).parent_path() / part_file)
      .string();
}

void ForEachStorePart(
    const std::string& path,
    const std::function<void(const DatasetReader& reader,
                             const StorePartInfo* listed)>& fn) {
  const DatasetReader root(path);
  if (!root.sharded_manifest()) {
    fn(root, nullptr);
    return;
  }
  for (const StorePartInfo& info : ReadStoreManifest(root)) {
    const std::string part_path = StorePartPath(path, info.file);
    std::error_code ec;
    if (!std::filesystem::exists(part_path, ec) || ec) {
      throw StoreError(path + ": part file " + info.file +
                       " listed in the manifest is missing — the sharded "
                       "store is incomplete; delete the manifest and rebuild");
    }
    const auto actual_bytes = std::filesystem::file_size(part_path, ec);
    if (!ec && actual_bytes != info.bytes) {
      throw StoreError(part_path + ": manifest lists " +
                       std::to_string(info.bytes) + " bytes but the part is " +
                       std::to_string(actual_bytes) +
                       " — truncated or swapped part file");
    }
    const DatasetReader part(part_path);
    if (part.record_count() != info.records) {
      throw StoreError(part_path + ": manifest lists " +
                       std::to_string(info.records) +
                       " records but the part holds " +
                       std::to_string(part.record_count()));
    }
    fn(part, &info);
  }
}

StoreContents ReadStoreContents(const std::string& path) {
  StoreContents out;
  ForEachStorePart(path, [&out](const DatasetReader& part,
                                const StorePartInfo* listed) {
    std::uint64_t region_fnv = kFnv1a64Seed;
    DecodeFileInto(out, part, listed != nullptr ? &region_fnv : nullptr);
    if (listed != nullptr && region_fnv != listed->records_fnv) {
      throw StoreError(part.path() +
                       ": records-region checksum does not match the "
                       "manifest — corrupted or swapped part file");
    }
  });
  return out;
}

// ---- Cache-directory layer -------------------------------------------------

std::uint64_t DatasetCacheKey(std::string_view task, std::string_view target,
                              std::span<const ir::Program> corpus,
                              const DatasetOptions& options) {
  std::uint64_t key = sim::HashCombine(HashString(task), HashString(target));
  key = sim::HashCombine(key, corpus.size());
  for (const ir::Program& p : corpus) {
    key = sim::HashCombine(key, HashString(p.name), HashString(p.family),
                           p.graph.Fingerprint());
  }
  key = sim::HashCombine(
      key, static_cast<std::uint64_t>(options.max_tile_configs_per_kernel),
      static_cast<std::uint64_t>(options.max_enumerated_tiles),
      static_cast<std::uint64_t>(options.fusion_configs_per_program),
      options.seed);
  // The generating CorpusOptions: tier extension grows a corpus in place, so
  // two scales sharing a program-list prefix must not alias to one store.
  key = sim::HashCombine(key, std::bit_cast<std::uint64_t>(options.corpus_scale),
                         options.corpus_seed);
  return sim::HashCombine(key, FeatureConfigHash(),
                          static_cast<std::uint64_t>(kStoreFormatVersion));
}

std::string StorePath(const std::string& dir, std::string_view task,
                      std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += task;
  path += '_';
  path += buf;
  path += ".tpds";
  return path;
}

namespace {

// The body LoadOrBuildTileDataset and LoadOrBuildFusionDataset share.
// `build` generates the dataset in-process; `loaded` picks it out of a
// store's contents; `items` is its vector of records (each a DatasetWriter
// record type with a `record` member).
template <typename Dataset, typename Item, typename Build>
Dataset LoadOrBuild(std::string_view task, const std::string& cache_dir,
                    std::span<const ir::Program> corpus,
                    const sim::TpuSimulator& simulator,
                    const DatasetOptions& options,
                    const Build& build,
                    Dataset StoreContents::*loaded,
                    std::vector<Item> Dataset::*items,
                    std::shared_ptr<StoredFeatures>* features,
                    StoreLoadStats* stats) {
  const auto start = Clock::now();
  if (features != nullptr) features->reset();
  if (cache_dir.empty()) {
    Dataset dataset = build();
    FillStats(stats, false, "", start);
    return dataset;
  }
  const std::uint64_t key =
      DatasetCacheKey(task, simulator.target().name, corpus, options);
  const std::string path = StorePath(cache_dir, task, key);
  if (std::filesystem::exists(path)) {
    StoreContents contents = ReadStoreContents(path);
    VerifyPrograms(contents, corpus, path);
    if (features != nullptr) *features = contents.features;
    FillStats(stats, true, path, start);
    return std::move(contents.*loaded);
  }
  Dataset dataset = build();
  std::vector<const KernelRecord*> records;
  records.reserve((dataset.*items).size());
  for (const Item& item : dataset.*items) records.push_back(&item.record);
  auto stored = FeaturizeUnique(records);
  std::filesystem::create_directories(cache_dir);
  DatasetWriter writer(path, options.store_part_bytes);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    writer.Add(ProgramInfo{static_cast<int>(i), corpus[i].name,
                           corpus[i].family});
  }
  for (const Item& item : dataset.*items) writer.Add(item);
  for (const FeaturizedKernel& fk : stored->entries()) writer.Add(fk);
  writer.Finish();
  if (features != nullptr) *features = std::move(stored);
  FillStats(stats, false, path, start);
  return dataset;
}

}  // namespace

TileDataset LoadOrBuildTileDataset(const std::string& cache_dir,
                                   std::span<const ir::Program> corpus,
                                   const sim::TpuSimulator& simulator,
                                   const DatasetOptions& options,
                                   std::shared_ptr<StoredFeatures>* features,
                                   StoreLoadStats* stats) {
  return LoadOrBuild<TileDataset>(
      "tile", cache_dir, corpus, simulator, options,
      [&] { return BuildTileDataset(corpus, simulator, options); },
      &StoreContents::tile, &TileDataset::kernels, features, stats);
}

FusionDataset LoadOrBuildFusionDataset(
    const std::string& cache_dir, std::span<const ir::Program> corpus,
    const sim::TpuSimulator& simulator,
    const analytical::AnalyticalModel& analytical,
    const DatasetOptions& options,
    std::shared_ptr<StoredFeatures>* features, StoreLoadStats* stats) {
  return LoadOrBuild<FusionDataset>(
      "fusion", cache_dir, corpus, simulator, options,
      [&] {
        return BuildFusionDataset(corpus, simulator, analytical, options);
      },
      &StoreContents::fusion, &FusionDataset::samples, features, stats);
}

}  // namespace tpuperf::data
