#include "storage/page.h"

#include <cstring>

namespace twig::storage {

namespace {

void PutU16(char* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU64(char* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

uint16_t GetU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

void EncodePageHeader(const PageHeader& header, char* page) {
  std::memcpy(page, kPageMagicBytes, sizeof(kPageMagicBytes));
  PutU16(page + 4, static_cast<uint16_t>(header.type));
  PutU16(page + 6, header.flags);
  PutU32(page + 8, header.page_id);
  PutU32(page + 12, header.payload_bytes);
  PutU64(page + kPageChecksumOffset, header.checksum);
}

bool DecodePageHeader(const char* page, size_t available, PageHeader* out) {
  if (available < kPageHeaderBytes) return false;
  if (std::memcmp(page, kPageMagicBytes, sizeof(kPageMagicBytes)) != 0) {
    return false;
  }
  out->type = static_cast<PageType>(GetU16(page + 4));
  out->flags = GetU16(page + 6);
  out->page_id = GetU32(page + 8);
  out->payload_bytes = GetU32(page + 12);
  out->checksum = GetU64(page + kPageChecksumOffset);
  return true;
}

Status ValidatePage(const char* page, size_t page_size, uint32_t expected_id) {
  PageHeader header;
  if (!DecodePageHeader(page, page_size, &header)) {
    return Status::Corruption("page " + std::to_string(expected_id) +
                              ": bad page magic");
  }
  if (header.page_id != expected_id) {
    return Status::Corruption("page " + std::to_string(expected_id) +
                              ": header claims page " +
                              std::to_string(header.page_id));
  }
  if (header.flags != 0) {
    return Status::Corruption("page " + std::to_string(expected_id) +
                              ": unknown flags");
  }
  if (header.payload_bytes > PageCapacity(page_size)) {
    return Status::Corruption("page " + std::to_string(expected_id) +
                              ": payload overruns page");
  }
  if (PageChecksum(page, page_size) != header.checksum) {
    return Status::Corruption("page " + std::to_string(expected_id) +
                              ": checksum mismatch");
  }
  return Status::OK();
}

Status ProbeStoreGeometry(std::string_view bytes, uint32_t* page_size,
                          uint32_t* page_count) {
  // Meta payload layout (paged_cst.cc writes it): store magic, version,
  // page_size, page_count are the first four fields after the header.
  constexpr size_t kNeed = kPageHeaderBytes + sizeof(kStoreMagic) + 12;
  PageHeader header;
  if (!DecodePageHeader(bytes.data(), bytes.size(), &header) ||
      header.type != PageType::kMeta || header.page_id != 0) {
    return Status::Corruption("not a TWCST03 store: bad meta page header");
  }
  if (bytes.size() < kNeed) {
    return Status::Corruption("TWCST03 store truncated before meta fields");
  }
  const char* p = bytes.data() + kPageHeaderBytes;
  if (std::memcmp(p, kStoreMagic, sizeof(kStoreMagic)) != 0) {
    return Status::Corruption("not a TWCST03 store: bad format magic");
  }
  p += sizeof(kStoreMagic);
  const uint32_t version = GetU32(p);
  if (version != kStoreVersion) {
    return Status::Corruption("TWCST03 version " + std::to_string(version) +
                              " unsupported");
  }
  *page_size = GetU32(p + 4);
  *page_count = GetU32(p + 8);
  if (!ValidPageSize(*page_size)) {
    return Status::Corruption("TWCST03 page size " +
                              std::to_string(*page_size) + " invalid");
  }
  if (*page_count == 0) {
    return Status::Corruption("TWCST03 store has zero pages");
  }
  return Status::OK();
}

}  // namespace twig::storage
