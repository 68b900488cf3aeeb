#include "storage/page_writer.h"

#include <cassert>
#include <cstring>

namespace twig::storage {

PageWriter::PageWriter(uint32_t page_size) : page_size_(page_size) {
  assert(ValidPageSize(page_size));
}

void PageWriter::Seal(uint32_t id, uint32_t payload_bytes) {
  char* page = PageAt(id);
  PageHeader header;
  header.type = types_[id];
  header.page_id = id;
  header.payload_bytes = payload_bytes;
  // The checksum covers the header fields, so they are written first.
  EncodePageHeader(header, page);
  header.checksum = PageChecksum(page, page_size_);
  EncodePageHeader(header, page);
}

uint32_t PageWriter::BeginPage(PageType type) {
  if (open_) {
    Seal(page_count() - 1, static_cast<uint32_t>(payload_used_));
  }
  const uint32_t id = page_count();
  types_.push_back(type);
  blob_.resize(blob_.size() + page_size_, '\0');
  payload_used_ = 0;
  open_ = true;
  return id;
}

size_t PageWriter::remaining() const {
  return open_ ? PageCapacity(page_size_) - payload_used_ : 0;
}

void PageWriter::Append(const void* data, size_t bytes) {
  assert(open_ && bytes <= remaining());
  char* page = PageAt(page_count() - 1);
  std::memcpy(page + kPageHeaderBytes + payload_used_, data, bytes);
  payload_used_ += bytes;
}

uint32_t PageWriter::EnsureRoom(PageType type, size_t bytes) {
  assert(bytes <= PageCapacity(page_size_));
  if (!open_ || types_.back() != type || remaining() < bytes) {
    return BeginPage(type);
  }
  return page_count() - 1;
}

void PageWriter::AppendSpill(PageType type, const void* data, size_t bytes) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    if (!open_ || types_.back() != type || remaining() == 0) {
      BeginPage(type);
    }
    const size_t take = bytes < remaining() ? bytes : remaining();
    Append(p, take);
    p += take;
    bytes -= take;
  }
}

void PageWriter::OverwritePage(uint32_t id, const void* payload,
                               size_t bytes) {
  assert(id < page_count() && bytes <= PageCapacity(page_size_));
  // Patching the page in progress just resets its payload; Finish
  // re-seals it identically.
  if (open_ && id == page_count() - 1) payload_used_ = bytes;
  char* page = PageAt(id);
  std::memset(page + kPageHeaderBytes, 0, PageCapacity(page_size_));
  std::memcpy(page + kPageHeaderBytes, payload, bytes);
  Seal(id, static_cast<uint32_t>(bytes));
}

std::string PageWriter::Finish() {
  if (open_) {
    Seal(page_count() - 1, static_cast<uint32_t>(payload_used_));
    open_ = false;
  }
  return std::move(blob_);
}

}  // namespace twig::storage
