// Where pages come from. A PageSource hands raw page bytes to the
// BufferManager, which owns validation (checksums), caching, and
// eviction; sources stay dumb and stateless beyond their backing
// bytes. Two implementations:
//
//   BlobPageSource — pages served out of an in-memory string. Used by
//     tests and by serialize-then-reopen flows that never touch disk.
//   MmapPageSource — a read-only mmap of a .twcst03 file. The kernel's
//     page cache backs cold reads; the buffer pool above bounds how
//     much validated, decoded data the process keeps hot.
//
// Both verify at Open that the byte stream is exactly as long as the
// geometry the meta page declares, so a truncated store fails fast
// instead of at some later pin, and bytes after the last page are
// rejected rather than ignored.

#ifndef TWIG_STORAGE_PAGE_SOURCE_H_
#define TWIG_STORAGE_PAGE_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace twig::storage {

class PageSource {
 public:
  virtual ~PageSource() = default;

  /// Copies page `page_id`'s raw bytes (header included) into `out`,
  /// which has room for page_size() bytes. No checksum verification —
  /// the buffer manager does that once per load, not once per read.
  virtual Status ReadPage(uint32_t page_id, char* out) const = 0;

  uint32_t page_size() const { return page_size_; }
  uint32_t page_count() const { return page_count_; }

  /// Human-readable origin ("<memory>" or a file path) for errors.
  const std::string& name() const { return name_; }

 protected:
  PageSource(std::string name, uint32_t page_size, uint32_t page_count)
      : name_(std::move(name)),
        page_size_(page_size),
        page_count_(page_count) {}

  std::string name_;
  uint32_t page_size_ = 0;
  uint32_t page_count_ = 0;
};

/// Serves pages from a string owned by the source.
class BlobPageSource : public PageSource {
 public:
  static Result<std::unique_ptr<BlobPageSource>> Open(std::string blob,
                                                      std::string name);

  Status ReadPage(uint32_t page_id, char* out) const override;

 private:
  BlobPageSource(std::string blob, std::string name, uint32_t page_size,
                 uint32_t page_count);

  std::string blob_;
};

/// Serves pages from a read-only memory map of a store file. Open
/// errors carry errno text so an unreadable path surfaces a concrete
/// reason (satellite: BeginRebuild failures report it via health).
class MmapPageSource : public PageSource {
 public:
  static Result<std::unique_ptr<MmapPageSource>> Open(
      const std::string& path);

  ~MmapPageSource() override;
  MmapPageSource(const MmapPageSource&) = delete;
  MmapPageSource& operator=(const MmapPageSource&) = delete;

  Status ReadPage(uint32_t page_id, char* out) const override;

 private:
  MmapPageSource(std::string path, const char* map, size_t map_bytes,
                 uint32_t page_size, uint32_t page_count);

  const char* map_ = nullptr;
  size_t map_bytes_ = 0;
};

/// Validates the byte-stream geometry shared by both sources: probes
/// the meta prefix, checks `total_bytes` equals page_size * page_count.
Status CheckStoreGeometry(std::string_view head, size_t total_bytes,
                          const std::string& name, uint32_t* page_size,
                          uint32_t* page_count);

}  // namespace twig::storage

#endif  // TWIG_STORAGE_PAGE_SOURCE_H_
