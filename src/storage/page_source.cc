#include "storage/page_source.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "storage/page.h"

namespace twig::storage {

Status CheckStoreGeometry(std::string_view head, size_t total_bytes,
                          const std::string& name, uint32_t* page_size,
                          uint32_t* page_count) {
  Status probe = ProbeStoreGeometry(head, page_size, page_count);
  if (!probe.ok()) {
    return Status::Corruption(name + ": " + std::string(probe.message()));
  }
  const uint64_t need =
      static_cast<uint64_t>(*page_size) * static_cast<uint64_t>(*page_count);
  if (total_bytes != need) {
    const char* what = total_bytes < need
                           ? ": store truncated ("
                           : ": trailing bytes after the last page (";
    return Status::Corruption(name + what + std::to_string(total_bytes) +
                              " bytes, geometry needs " +
                              std::to_string(need) + ")");
  }
  return Status::OK();
}

// ---------------------------------------------------------------- blob

BlobPageSource::BlobPageSource(std::string blob, std::string name,
                               uint32_t page_size, uint32_t page_count)
    : PageSource(std::move(name), page_size, page_count),
      blob_(std::move(blob)) {}

Result<std::unique_ptr<BlobPageSource>> BlobPageSource::Open(
    std::string blob, std::string name) {
  uint32_t page_size = 0;
  uint32_t page_count = 0;
  Status geometry =
      CheckStoreGeometry(blob, blob.size(), name, &page_size, &page_count);
  if (!geometry.ok()) return geometry;
  return std::unique_ptr<BlobPageSource>(new BlobPageSource(
      std::move(blob), std::move(name), page_size, page_count));
}

Status BlobPageSource::ReadPage(uint32_t page_id, char* out) const {
  if (page_id >= page_count_) {
    return Status::InvalidArgument(name_ + ": page " +
                                   std::to_string(page_id) + " out of range");
  }
  std::memcpy(out, blob_.data() + static_cast<size_t>(page_id) * page_size_,
              page_size_);
  return Status::OK();
}

// ---------------------------------------------------------------- mmap

MmapPageSource::MmapPageSource(std::string path, const char* map,
                               size_t map_bytes, uint32_t page_size,
                               uint32_t page_count)
    : PageSource(std::move(path), page_size, page_count),
      map_(map),
      map_bytes_(map_bytes) {}

MmapPageSource::~MmapPageSource() {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), map_bytes_);
  }
}

Result<std::unique_ptr<MmapPageSource>> MmapPageSource::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound(path + ": open failed: " +
                            std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status out = Status::Internal(path + ": fstat failed: " +
                                  std::strerror(errno));
    ::close(fd);
    return out;
  }
  const size_t bytes = static_cast<size_t>(st.st_size);
  if (bytes == 0) {
    ::close(fd);
    return Status::Corruption(path + ": empty store file");
  }
  void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is
  // no longer needed either way.
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::Internal(path + ": mmap failed: " + std::strerror(errno));
  }
  const char* base = static_cast<const char*>(map);
  uint32_t page_size = 0;
  uint32_t page_count = 0;
  Status geometry = CheckStoreGeometry(std::string_view(base, bytes), bytes,
                                       path, &page_size, &page_count);
  if (!geometry.ok()) {
    ::munmap(map, bytes);
    return geometry;
  }
  return std::unique_ptr<MmapPageSource>(
      new MmapPageSource(path, base, bytes, page_size, page_count));
}

Status MmapPageSource::ReadPage(uint32_t page_id, char* out) const {
  if (page_id >= page_count_) {
    return Status::InvalidArgument(name_ + ": page " +
                                   std::to_string(page_id) + " out of range");
  }
  std::memcpy(out, map_ + static_cast<size_t>(page_id) * page_size_,
              page_size_);
  return Status::OK();
}

}  // namespace twig::storage
