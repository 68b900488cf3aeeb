#include "cst/paged_cst.h"

#include <cstring>

#include "storage/page.h"
#include "storage/page_writer.h"
#include "util/failpoint.h"

namespace twig::cst {

namespace {

/// Fixed node record: symbol, parent, depth, starts_with_tag (u32),
/// C_p, C_o (f64), signature_index.
constexpr uint32_t kNodeRecordBytes =
    4 * sizeof(uint32_t) + 2 * sizeof(double) + sizeof(uint32_t);
constexpr uint32_t kOffsetRecordBytes = sizeof(uint32_t);
constexpr uint32_t kEntryRecordBytes = 2 * sizeof(uint32_t);

/// Meta payload: kStoreMagic, version, page_size, page_count (the
/// prefix storage::ProbeStoreGeometry reads), the global scalars, then
/// five section descriptors (nodes, child_offsets, child_entries,
/// signatures, strings) of 16 bytes each.
constexpr size_t kSectionDescriptorBytes = 4 * sizeof(uint32_t);

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

suffix::ChildIndex::Entry DecodeEntry(const char* record) {
  suffix::ChildIndex::Entry entry;
  std::memcpy(&entry.symbol, record, sizeof(uint32_t));
  std::memcpy(&entry.child, record + sizeof(uint32_t), sizeof(uint32_t));
  return entry;
}

template <typename T>
bool ReadPod(std::string_view payload, size_t* pos, T* out) {
  if (payload.size() - *pos < sizeof(T)) return false;
  std::memcpy(out, payload.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

// ------------------------------------------------------------ writer

Result<std::string> Cst::SerializePaged(size_t page_size) const {
  if (!storage::ValidPageSize(page_size)) {
    return Status::InvalidArgument(
        "TWCST03 page size must be a power of two in [" +
        std::to_string(storage::kMinPageBytes) + ", " +
        std::to_string(storage::kMaxPageBytes) + "]: " +
        std::to_string(page_size));
  }
  const size_t capacity = storage::PageCapacity(page_size);
  const size_t sig_record = signature_length_ * sizeof(uint32_t);
  if (kNodeRecordBytes > capacity || (sig_record > 0 && sig_record > capacity)) {
    return Status::InvalidArgument(
        "TWCST03 page size " + std::to_string(page_size) +
        " cannot fit one record (signature records need " +
        std::to_string(sig_record + storage::kPageHeaderBytes) + " bytes)");
  }

  storage::PageWriter w(static_cast<uint32_t>(page_size));
  w.BeginPage(storage::PageType::kMeta);  // page 0, patched at the end

  struct SectionPlan {
    uint32_t first_page = 0;
    uint32_t page_count = 0;
    uint32_t record_bytes = 0;
    uint32_t records_per_page = 0;
  };
  // Emits `count` fixed-size records, packing floor(capacity / record)
  // per page — records never straddle a boundary.
  auto write_records = [&](storage::PageType type, uint32_t record_bytes,
                           size_t count, auto&& emit) {
    SectionPlan plan;
    plan.record_bytes = record_bytes;
    plan.records_per_page =
        record_bytes == 0 ? 0
                          : static_cast<uint32_t>(capacity / record_bytes);
    plan.first_page = w.page_count();
    for (size_t i = 0; i < count; ++i) {
      w.EnsureRoom(type, record_bytes);
      emit(i);
    }
    plan.page_count = w.page_count() - plan.first_page;
    return plan;
  };

  const SectionPlan nodes = write_records(
      storage::PageType::kNodes, kNodeRecordBytes, nodes_.size(),
      [&](size_t i) {
        const Node& node = nodes_[i];
        char record[kNodeRecordBytes];
        size_t off = 0;
        auto put = [&](const auto& v) {
          std::memcpy(record + off, &v, sizeof(v));
          off += sizeof(v);
        };
        put(node.symbol);
        put(node.parent);
        put(node.depth);
        put(uint32_t{node.starts_with_tag ? 1u : 0u});
        put(node.cp);
        put(node.co);
        put(node.signature_index);
        w.Append(record, sizeof(record));
      });

  const auto& offsets = child_index_.offsets();
  const SectionPlan child_offsets = write_records(
      storage::PageType::kChildOffsets, kOffsetRecordBytes, offsets.size(),
      [&](size_t i) { w.Append(&offsets[i], sizeof(uint32_t)); });

  const auto entries = child_index_.entries();
  const SectionPlan child_entries = write_records(
      storage::PageType::kChildEntries, kEntryRecordBytes, entries.size(),
      [&](size_t i) {
        uint32_t record[2] = {entries[i].symbol, entries[i].child};
        w.Append(record, sizeof(record));
      });

  const SectionPlan signatures = write_records(
      storage::PageType::kSignatures, static_cast<uint32_t>(sig_record),
      sig_record == 0 ? 0 : signatures_.size(), [&](size_t i) {
        w.Append(signatures_[i].data(), sig_record);
      });

  // Labels: a length-prefixed byte stream, split across pages freely.
  SectionPlan strings;
  strings.first_page = w.page_count();
  std::string label_bytes;
  for (tree::LabelId id = 0; id < labels_.size(); ++id) {
    const std::string_view name = labels_.Name(id);
    AppendPod(&label_bytes, static_cast<uint32_t>(name.size()));
    label_bytes.append(name);
  }
  w.AppendSpill(storage::PageType::kStrings, label_bytes.data(),
                label_bytes.size());
  strings.page_count = w.page_count() - strings.first_page;

  // Patch the meta page now that the directory is complete.
  std::string meta;
  meta.append(storage::kStoreMagic, sizeof(storage::kStoreMagic));
  AppendPod(&meta, storage::kStoreVersion);
  AppendPod(&meta, static_cast<uint32_t>(page_size));
  AppendPod(&meta, w.page_count());
  AppendPod(&meta, data_node_count_);
  AppendPod(&meta, prune_threshold_);
  AppendPod(&meta, static_cast<uint64_t>(size_bytes_));
  AppendPod(&meta, static_cast<uint64_t>(signature_length_));
  AppendPod(&meta, static_cast<uint64_t>(max_value_chars_));
  AppendPod(&meta, static_cast<uint32_t>(nodes_.size()));
  AppendPod(&meta, static_cast<uint32_t>(signatures_.size()));
  AppendPod(&meta, static_cast<uint32_t>(labels_.size()));
  const SectionPlan* plans[] = {&nodes, &child_offsets, &child_entries,
                                &signatures, &strings};
  for (const SectionPlan* plan : plans) {
    AppendPod(&meta, plan->first_page);
    AppendPod(&meta, plan->page_count);
    AppendPod(&meta, plan->record_bytes);
    AppendPod(&meta, plan->records_per_page);
  }
  w.OverwritePage(0, meta.data(), meta.size());
  return w.Finish();
}

Result<std::string> Cst::SerializePaged() const {
  return SerializePaged(storage::kDefaultPageBytes);
}

// ----------------------------------------------------------- decoder

Result<Cst> Cst::Deserialize(std::string_view bytes) {
  // Fault-injection seam: a fired "cst/deserialize" failpoint behaves
  // exactly like corrupt bytes would, so rebuild/publish error paths
  // are drivable without crafting hostile input.
  if (Status injected = util::FailpointCheck("cst/deserialize");
      !injected.ok()) {
    return Status::Corruption(injected.message());
  }
  Result<std::unique_ptr<storage::BlobPageSource>> source =
      storage::BlobPageSource::Open(std::string(bytes), "<memory>");
  if (!source.ok()) return source.status();
  const uint32_t page_size = source.value()->page_size();
  PagedCstOptions options;
  options.pool_bytes = bytes.size();  // the walk reads each page once
  Result<std::shared_ptr<PagedCst>> paged = PagedCst::Open(
      std::shared_ptr<const storage::PageSource>(std::move(source.value())),
      options);
  if (!paged.ok()) return paged.status();
  Result<Cst> cst = Materialize(*paged.value());
  if (!cst.ok()) return cst.status();
  // The reader never looks at some bytes (a page's type, the payload
  // size of a fixed-record page), so hold the whole input to what the
  // writer produces: a store that does not re-serialize to the same
  // bytes was not written by SerializePaged.
  Result<std::string> canonical = cst.value().SerializePaged(page_size);
  if (!canonical.ok() || canonical.value() != bytes) {
    return Status::Corruption("<memory>: TWCST03 bytes do not re-serialize "
                              "identically");
  }
  return cst;
}

// ------------------------------------------------------------ reader

Result<std::shared_ptr<PagedCst>> PagedCst::Open(
    std::shared_ptr<const storage::PageSource> source,
    const PagedCstOptions& options) {
  if (source == nullptr) {
    return Status::InvalidArgument("null page source");
  }
  std::shared_ptr<PagedCst> cst(new PagedCst());
  cst->source_ = std::move(source);
  if (options.buffer != nullptr) {
    if (options.buffer->page_size() != cst->source_->page_size()) {
      return Status::InvalidArgument(
          cst->source_->name() + ": store page size " +
          std::to_string(cst->source_->page_size()) +
          " does not match the shared buffer pool's " +
          std::to_string(options.buffer->page_size()));
    }
    cst->buffer_ = options.buffer;
  } else {
    cst->buffer_ = std::make_shared<storage::BufferManager>(
        options.pool_bytes, cst->source_->page_size());
  }
  Result<uint64_t> id = cst->buffer_->RegisterSource(cst->source_);
  if (!id.ok()) return id.status();
  cst->source_id_ = id.value();
  {
    Result<storage::PinnedPage> pin = cst->buffer_->Pin(cst->source_id_, 0);
    if (!pin.ok()) return pin.status();
    Status meta = cst->ParseMeta(
        std::string_view(pin.value().payload(), pin.value().payload_bytes()),
        pin.value().payload_bytes());
    if (!meta.ok()) return meta;
  }
  Status labels = cst->LoadLabels();
  if (!labels.ok()) return labels;
  return cst;
}

Result<std::shared_ptr<PagedCst>> PagedCst::OpenFile(
    const std::string& path, const PagedCstOptions& options) {
  Result<std::unique_ptr<storage::MmapPageSource>> source =
      storage::MmapPageSource::Open(path);
  if (!source.ok()) return source.status();
  return Open(std::shared_ptr<const storage::PageSource>(
                  std::move(source.value())),
              options);
}

PagedCst::~PagedCst() {
  if (buffer_ != nullptr) buffer_->DropSource(source_id_);
}

Status PagedCst::ParseMeta(std::string_view payload,
                           uint32_t /*payload_bytes*/) {
  const std::string& name = source_->name();
  auto corrupt = [&](const std::string& what) {
    return Status::Corruption(name + ": " + what);
  };
  if (payload.size() < sizeof(storage::kStoreMagic) ||
      std::memcmp(payload.data(), storage::kStoreMagic,
                  sizeof(storage::kStoreMagic)) != 0) {
    return corrupt("bad TWCST03 meta magic");
  }
  size_t pos = sizeof(storage::kStoreMagic);
  uint32_t version = 0;
  uint32_t page_size = 0;
  uint32_t page_count = 0;
  if (!ReadPod(payload, &pos, &version) ||
      !ReadPod(payload, &pos, &page_size) ||
      !ReadPod(payload, &pos, &page_count)) {
    return corrupt("truncated TWCST03 meta header");
  }
  if (version != storage::kStoreVersion) {
    return corrupt("unsupported TWCST03 version " + std::to_string(version));
  }
  if (page_size != source_->page_size() ||
      page_count != source_->page_count()) {
    return corrupt("meta geometry disagrees with the probed store");
  }
  if (!ReadPod(payload, &pos, &meta_.data_node_count) ||
      !ReadPod(payload, &pos, &meta_.prune_threshold) ||
      !ReadPod(payload, &pos, &meta_.size_bytes) ||
      !ReadPod(payload, &pos, &meta_.signature_length) ||
      !ReadPod(payload, &pos, &meta_.max_value_chars) ||
      !ReadPod(payload, &pos, &meta_.node_count) ||
      !ReadPod(payload, &pos, &meta_.signature_count) ||
      !ReadPod(payload, &pos, &meta_.label_count)) {
    return corrupt("truncated TWCST03 meta scalars");
  }
  for (Section* section :
       {&meta_.nodes, &meta_.child_offsets, &meta_.child_entries,
        &meta_.signatures, &meta_.strings}) {
    if (!ReadPod(payload, &pos, &section->first_page) ||
        !ReadPod(payload, &pos, &section->page_count) ||
        !ReadPod(payload, &pos, &section->record_bytes) ||
        !ReadPod(payload, &pos, &section->records_per_page)) {
      return corrupt("truncated TWCST03 section directory");
    }
  }
  if (pos != payload.size()) return corrupt("trailing bytes in meta page");

  if (meta_.node_count == 0) return corrupt("empty CST");
  if (meta_.signature_count > meta_.node_count) {
    return corrupt("more signatures than nodes");
  }
  const size_t capacity = storage::PageCapacity(page_size);
  const size_t sig_record = meta_.signature_length * sizeof(uint32_t);
  struct Expectation {
    const Section* section;
    uint32_t record_bytes;
    uint64_t records;
    const char* what;
  };
  const Expectation expected[] = {
      {&meta_.nodes, kNodeRecordBytes, meta_.node_count, "nodes"},
      {&meta_.child_offsets, kOffsetRecordBytes,
       static_cast<uint64_t>(meta_.node_count) + 1, "child offsets"},
      {&meta_.child_entries, kEntryRecordBytes,
       static_cast<uint64_t>(meta_.node_count) - 1, "child entries"},
      {&meta_.signatures, static_cast<uint32_t>(sig_record),
       sig_record == 0 ? 0 : meta_.signature_count, "signatures"},
  };
  for (const Expectation& e : expected) {
    const Section& s = *e.section;
    if (s.record_bytes != e.record_bytes) {
      return corrupt(std::string(e.what) + " section record size mismatch");
    }
    const uint32_t per_page =
        e.record_bytes == 0 ? 0
                            : static_cast<uint32_t>(capacity / e.record_bytes);
    if (s.records_per_page != per_page) {
      return corrupt(std::string(e.what) + " section packing mismatch");
    }
    const uint64_t need_pages =
        e.records == 0 || per_page == 0
            ? 0
            : (e.records + per_page - 1) / per_page;
    if (s.page_count != need_pages) {
      return corrupt(std::string(e.what) + " section page count mismatch");
    }
    if (need_pages > 0 &&
        (s.first_page == 0 ||
         static_cast<uint64_t>(s.first_page) + s.page_count > page_count)) {
      return corrupt(std::string(e.what) + " section out of store bounds");
    }
  }
  if (meta_.strings.page_count > 0 &&
      (meta_.strings.first_page == 0 ||
       static_cast<uint64_t>(meta_.strings.first_page) +
               meta_.strings.page_count >
           page_count)) {
    return corrupt("strings section out of store bounds");
  }
  return Status::OK();
}

Status PagedCst::LoadLabels() {
  // The label stream is small and needed on every query (tag symbol
  // resolution), so it is materialized once at Open rather than paged.
  std::string bytes;
  for (uint32_t p = 0; p < meta_.strings.page_count; ++p) {
    Result<storage::PinnedPage> pin =
        buffer_->Pin(source_id_, meta_.strings.first_page + p);
    if (!pin.ok()) return pin.status();
    bytes.append(pin.value().payload(), pin.value().payload_bytes());
  }
  size_t pos = 0;
  for (uint32_t i = 0; i < meta_.label_count; ++i) {
    uint32_t length = 0;
    if (!ReadPod(bytes, &pos, &length) || bytes.size() - pos < length) {
      return Status::Corruption(source_->name() + ": truncated label " +
                                std::to_string(i));
    }
    const std::string_view label(bytes.data() + pos, length);
    pos += length;
    if (labels_.Find(label) != tree::kInvalidLabel) {
      return Status::Corruption(source_->name() + ": duplicate label name");
    }
    labels_.Intern(label);
  }
  if (pos != bytes.size()) {
    return Status::Corruption(source_->name() +
                              ": trailing bytes after labels");
  }
  return Status::OK();
}

void PagedCst::RecordError(const Status& status) const {
  error_count_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (first_error_.ok()) first_error_ = status;
}

Status PagedCst::storage_health() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return first_error_;
}

/// The records of one section, read in one accessor call. It holds at
/// most one pin and pins again only when a record lies on another page
/// than the previous one, so a call that reads many records of a page
/// (a child span, a binary search) pins it once. The pin dies with the
/// cursor, at the end of the call.
class PagedCst::RecordCursor {
 public:
  RecordCursor(const PagedCst& cst, const Section& section)
      : cst_(cst), section_(section) {}

  /// Record `index`'s bytes, valid until the next call or the cursor's
  /// end. Null on any storage error (recorded).
  const char* Record(uint64_t index) {
    if (section_.records_per_page == 0) return nullptr;
    const uint64_t page = index / section_.records_per_page;
    const uint32_t offset = static_cast<uint32_t>(
        (index % section_.records_per_page) * section_.record_bytes);
    if (page >= section_.page_count) {
      cst_.RecordError(Status::Corruption(cst_.source_->name() +
                                          ": record index past section end"));
      return nullptr;
    }
    if (!pin_ || page != page_) {
      pin_.Release();
      Result<storage::PinnedPage> result = cst_.buffer_->Pin(
          cst_.source_id_,
          section_.first_page + static_cast<uint32_t>(page));
      if (!result.ok()) {
        cst_.RecordError(result.status());
        return nullptr;
      }
      pin_ = std::move(result.value());
      page_ = page;
    }
    if (offset + section_.record_bytes > pin_.payload_bytes()) {
      cst_.RecordError(Status::Corruption(cst_.source_->name() +
                                          ": record past page payload"));
      return nullptr;
    }
    return pin_.payload() + offset;
  }

 private:
  const PagedCst& cst_;
  const Section& section_;
  storage::PinnedPage pin_;
  uint64_t page_ = 0;
};

bool PagedCst::ReadNode(CstNodeId node, NodeRecord* out) const {
  if (node >= meta_.node_count) {
    RecordError(Status::Corruption(source_->name() + ": node id " +
                                   std::to_string(node) + " out of range"));
    return false;
  }
  RecordCursor cursor(*this, meta_.nodes);
  const char* record = cursor.Record(node);
  if (record == nullptr) return false;
  size_t off = 0;
  auto get = [&](auto* v) {
    std::memcpy(v, record + off, sizeof(*v));
    off += sizeof(*v);
  };
  uint32_t starts = 0;
  get(&out->symbol);
  get(&out->parent);
  get(&out->depth);
  get(&starts);
  get(&out->cp);
  get(&out->co);
  get(&out->signature_index);
  out->starts_with_tag = starts != 0;
  return true;
}

bool PagedCst::ReadOffsets(CstNodeId node, uint32_t* lo, uint32_t* hi) const {
  RecordCursor cursor(*this, meta_.child_offsets);
  const char* rec_lo = cursor.Record(node);
  if (rec_lo == nullptr) return false;
  std::memcpy(lo, rec_lo, sizeof(*lo));
  const char* rec_hi = cursor.Record(static_cast<uint64_t>(node) + 1);
  if (rec_hi == nullptr) return false;
  std::memcpy(hi, rec_hi, sizeof(*hi));
  const uint32_t entry_count = meta_.node_count - 1;
  if (*hi < *lo || *hi > entry_count) {
    RecordError(Status::Corruption(source_->name() +
                                   ": child span offsets out of order"));
    return false;
  }
  return true;
}

CstNodeId PagedCst::Step(CstNodeId node, suffix::Symbol symbol) const {
  if (symbol > suffix::kMaxSymbol) return kNoCstNode;
  if (node >= meta_.node_count) {
    RecordError(Status::Corruption(source_->name() + ": node id " +
                                   std::to_string(node) + " out of range"));
    return kNoCstNode;
  }
  uint32_t lo = 0;
  uint32_t hi = 0;
  if (!ReadOffsets(node, &lo, &hi)) return kNoCstNode;
  RecordCursor entries(*this, meta_.child_entries);
  auto entry_at = [&](uint32_t i, suffix::ChildIndex::Entry* e) {
    const char* record = entries.Record(i);
    if (record == nullptr) return false;
    *e = DecodeEntry(record);
    return true;
  };
  // Binary search of the node's sorted child span. Every probe reads
  // through one cursor, so a span on one page is pinned once.
  uint32_t a = lo;
  uint32_t b = hi;
  suffix::ChildIndex::Entry entry;
  while (a < b) {
    const uint32_t mid = a + (b - a) / 2;
    if (!entry_at(mid, &entry)) return kNoCstNode;
    if (entry.symbol < symbol) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  if (a == hi) return kNoCstNode;
  if (!entry_at(a, &entry) || entry.symbol != symbol) return kNoCstNode;
  if (entry.child == 0 || entry.child >= meta_.node_count) {
    RecordError(Status::Corruption(source_->name() +
                                   ": child id out of range"));
    return kNoCstNode;
  }
  return entry.child;
}

size_t PagedCst::CopyChildren(CstNodeId node,
                              std::vector<suffix::ChildIndex::Entry>* out)
    const {
  out->clear();
  if (node >= meta_.node_count) {
    RecordError(Status::Corruption(source_->name() + ": node id " +
                                   std::to_string(node) + " out of range"));
    return 0;
  }
  uint32_t lo = 0;
  uint32_t hi = 0;
  if (!ReadOffsets(node, &lo, &hi)) return 0;
  out->reserve(hi - lo);
  RecordCursor entries(*this, meta_.child_entries);
  for (uint32_t i = lo; i < hi; ++i) {
    const char* record = entries.Record(i);
    if (record == nullptr) {
      out->clear();  // a partial child list would skew fan-out walks
      return 0;
    }
    out->push_back(DecodeEntry(record));
  }
  return out->size();
}

double PagedCst::PresenceCount(CstNodeId node) const {
  NodeRecord record;
  return ReadNode(node, &record) ? record.cp : 0.0;
}

double PagedCst::OccurrenceCount(CstNodeId node) const {
  NodeRecord record;
  return ReadNode(node, &record) ? record.co : 0.0;
}

bool PagedCst::StartsWithTag(CstNodeId node) const {
  NodeRecord record;
  return ReadNode(node, &record) && record.starts_with_tag;
}

const sethash::Signature* PagedCst::GetSignature(
    CstNodeId node, sethash::Signature* scratch) const {
  NodeRecord record;
  if (!ReadNode(node, &record)) return nullptr;
  if (record.signature_index == 0xffffffffu) return nullptr;
  if (record.signature_index >= meta_.signature_count) {
    RecordError(Status::Corruption(source_->name() +
                                   ": signature index out of range"));
    return nullptr;
  }
  if (meta_.signature_length == 0) {
    scratch->clear();
    return scratch;
  }
  RecordCursor cursor(*this, meta_.signatures);
  const char* bytes = cursor.Record(record.signature_index);
  if (bytes == nullptr) return nullptr;
  scratch->resize(meta_.signature_length);
  std::memcpy(scratch->data(), bytes,
              meta_.signature_length * sizeof(uint32_t));
  return scratch;
}

uint32_t PagedCst::Depth(CstNodeId node) const {
  NodeRecord record;
  return ReadNode(node, &record) ? record.depth : 0;
}

suffix::Symbol PagedCst::GetSymbol(CstNodeId node) const {
  NodeRecord record;
  return ReadNode(node, &record) ? record.symbol : CstView::kUnknownSymbol;
}

CstNodeId PagedCst::Parent(CstNodeId node) const {
  NodeRecord record;
  return ReadNode(node, &record) ? record.parent : kNoCstNode;
}

}  // namespace twig::cst
