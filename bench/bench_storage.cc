// bench_storage: microbenchmarks for the storage buffer manager
// (DESIGN.md §15) — pin/unpin throughput against an in-memory store,
// and eviction churn as the buffer pool shrinks below the working set.
//
//   ./bench_storage                  # sweep pool sizes, uniform+skewed
//   ./bench_storage --buffer-mb=2    # one pool size
//   ./bench_storage --threads=8 --ops=1000000
//
// The store is synthetic (distinct payload per page, real checksums,
// the current kStoreVersion), so the numbers isolate the buffer
// manager: page-table lookups, pin refcounting, clock eviction, and
// page validation on every load — the header checks plus the
// word-parallel page checksum, which bench_timing's BM_PageChecksum
// times on its own.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/page_source.h"
#include "storage/page_writer.h"
#include "util/flags.h"
#include "util/strings.h"

namespace {

using namespace twig;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kPageBytes = 4096;

std::string MakeStore(uint32_t data_pages) {
  storage::PageWriter w(kPageBytes);
  w.BeginPage(storage::PageType::kMeta);
  std::string payload(storage::PageCapacity(kPageBytes), '\0');
  for (uint32_t i = 0; i < data_pages; ++i) {
    w.BeginPage(storage::PageType::kNodes);
    // Distinct, verifiable payload: every page carries its own id.
    std::memcpy(payload.data(), &i, sizeof(i));
    w.Append(payload.data(), payload.size());
  }
  std::string meta;
  meta.append(storage::kStoreMagic, sizeof(storage::kStoreMagic));
  const uint32_t version = storage::kStoreVersion;
  const uint32_t page_size = kPageBytes;
  const uint32_t count = w.page_count();
  meta.append(reinterpret_cast<const char*>(&version), 4);
  meta.append(reinterpret_cast<const char*>(&page_size), 4);
  meta.append(reinterpret_cast<const char*>(&count), 4);
  w.OverwritePage(0, meta.data(), meta.size());
  return w.Finish();
}

struct RunResult {
  double seconds = 0;
  uint64_t pins = 0;
  storage::BufferManager::Stats stats;
};

/// `threads` workers each issue `ops` pin/check/release cycles.
/// Skewed access sends 80% of pins to the first 10% of pages (a hot
/// set that a sane pool should keep resident).
RunResult RunLoop(const std::shared_ptr<const storage::PageSource>& source,
                  size_t pool_bytes, uint32_t data_pages, size_t threads,
                  size_t ops, bool skewed) {
  storage::BufferManager pool(pool_bytes, kPageBytes);
  auto id = pool.RegisterSource(source);
  if (!id.ok()) {
    std::fprintf(stderr, "bench_storage: %s\n",
                 id.status().ToString().c_str());
    std::exit(1);
  }
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> wrong{0};
  const uint32_t hot_pages = std::max(1u, data_pages / 10);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ULL * (t + 1);
      uint64_t done = 0;
      for (size_t i = 0; i < ops; ++i) {
        // xorshift64: cheap enough to not dominate the pin itself.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        uint32_t page;
        if (skewed && (state % 10) < 8) {
          page = 1 + static_cast<uint32_t>(state / 16 % hot_pages);
        } else {
          page = 1 + static_cast<uint32_t>(state / 16 % data_pages);
        }
        auto pin = pool.Pin(id.value(), page);
        if (!pin.ok()) continue;  // exhaustion under contention is legal
        uint32_t stored;
        std::memcpy(&stored, pin.value().payload(), sizeof(stored));
        if (stored != page - 1) wrong.fetch_add(1);
        ++done;
      }
      completed.fetch_add(done);
    });
  }
  for (auto& worker : workers) worker.join();
  RunResult result;
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.pins = completed.load();
  result.stats = pool.stats();
  if (wrong.load() > 0) {
    std::fprintf(stderr, "bench_storage: %llu pins saw wrong payloads\n",
                 static_cast<unsigned long long>(wrong.load()));
    std::exit(1);
  }
  return result;
}

void PrintRun(const char* label, double buffer_mb, const RunResult& r) {
  const double hit_rate =
      r.stats.pins == 0
          ? 0
          : 100.0 *
                static_cast<double>(r.stats.pins - r.stats.reads) /
                static_cast<double>(r.stats.pins);
  std::printf("  %-8s %6.2f MiB pool | %8.0f kpins/s | hit %6.2f%% | "
              "%9llu evictions | %llu pool-full\n",
              label, buffer_mb,
              static_cast<double>(r.pins) / r.seconds / 1e3, hit_rate,
              static_cast<unsigned long long>(r.stats.evictions),
              static_cast<unsigned long long>(r.stats.exhausted));
}

constexpr char kUsage[] =
    "usage: bench_storage [--pages=N] [--threads=N] [--ops=N]\n"
    "                     [--buffer-mb=F]\n"
    "  --pages=N      data pages in the synthetic store (default 4096\n"
    "                 pages of 4 KiB = 16 MiB)\n"
    "  --threads=N    concurrent pinning threads (default 4)\n"
    "  --ops=N        pin/unpin cycles per thread (default 200000)\n"
    "  --buffer-mb=F  run one pool size instead of the sweep\n";

}  // namespace

int main(int argc, char** argv) {
  size_t pages = 4096;
  size_t threads = 4;
  size_t ops = 200000;
  double buffer_mb = 0;
  util::FlagParser flags("bench_storage", kUsage);
  flags.Size("pages", &pages);
  flags.Size("threads", &threads);
  flags.Size("ops", &ops);
  flags.Double("buffer-mb", &buffer_mb);
  if (int code = flags.Parse(argc, argv); code >= 0) return code;
  if (pages == 0 || threads == 0 || ops == 0 || buffer_mb < 0) {
    std::fprintf(stderr, "bench_storage: flags must be positive\n");
    return 2;
  }

  const uint32_t data_pages = static_cast<uint32_t>(pages);
  auto blob = storage::BlobPageSource::Open(MakeStore(data_pages),
                                            "bench-store");
  if (!blob.ok()) {
    std::fprintf(stderr, "bench_storage: %s\n",
                 blob.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const storage::PageSource> source = std::move(blob).value();
  const double store_mb = static_cast<double>(data_pages + 1) *
                          kPageBytes / (1024.0 * 1024.0);
  std::printf("== buffer manager: %u pages of %u B (%s store), "
              "%zu threads x %zu ops ==\n",
              data_pages, kPageBytes,
              HumanBytes(static_cast<size_t>(data_pages + 1) * kPageBytes)
                  .c_str(),
              threads, ops);

  std::vector<double> pool_sizes;
  if (buffer_mb > 0) {
    pool_sizes.push_back(buffer_mb);
  } else {
    // The interesting regimes: pool far below, near, and above the
    // store (the last one should evict ~never after warmup).
    pool_sizes = {store_mb / 16, store_mb / 4, store_mb * 1.25};
  }
  for (bool skewed : {false, true}) {
    std::printf("%s access:\n", skewed ? "skewed 80/20" : "uniform");
    for (double mb : pool_sizes) {
      const size_t pool_bytes =
          static_cast<size_t>(mb * 1024.0 * 1024.0);
      const RunResult r = RunLoop(source, pool_bytes, data_pages,
                                  threads, ops, skewed);
      PrintRun(skewed ? "skewed" : "uniform", mb, r);
    }
  }
  return 0;
}
