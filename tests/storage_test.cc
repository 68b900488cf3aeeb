// Tests for the disk-backed CST storage subsystem: the TWCST03 page
// format, the pin/unpin buffer manager (including its concurrency
// protocol), the demand-paged CST reader, hostile-store handling, and
// the storage failpoint seams.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cst/cst.h"
#include "cst/paged_cst.h"
#include "data/generators.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/page_source.h"
#include "storage/page_writer.h"
#include "suffix/path_suffix_tree.h"
#include "test_trees.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace twig {
namespace {

using storage::BlobPageSource;
using storage::BufferManager;
using storage::PageType;
using storage::PageWriter;
using storage::PinnedPage;

constexpr uint32_t kPage = 512;

/// A minimal valid store: a meta page carrying only the geometry
/// prefix, plus `data_pages` node pages whose payloads are distinct
/// (page i is filled with 'a' + i). Enough structure for the buffer
/// manager, which validates pages but never interprets the directory.
std::string MakeRawStore(uint32_t data_pages, uint32_t page_size = kPage) {
  PageWriter w(page_size);
  w.BeginPage(PageType::kMeta);
  for (uint32_t i = 0; i < data_pages; ++i) {
    w.BeginPage(PageType::kNodes);
    std::string payload(16, static_cast<char>('a' + i % 26));
    w.Append(payload.data(), payload.size());
  }
  std::string meta;
  meta.append(storage::kStoreMagic, sizeof(storage::kStoreMagic));
  const uint32_t version = storage::kStoreVersion;
  const uint32_t count = w.page_count();
  meta.append(reinterpret_cast<const char*>(&version), 4);
  meta.append(reinterpret_cast<const char*>(&page_size), 4);
  meta.append(reinterpret_cast<const char*>(&count), 4);
  w.OverwritePage(0, meta.data(), meta.size());
  return w.Finish();
}

std::shared_ptr<const storage::PageSource> OpenBlob(std::string blob) {
  auto source = BlobPageSource::Open(std::move(blob), "test-store");
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  return std::shared_ptr<const storage::PageSource>(
      std::move(source).value());
}

// ------------------------------------------------------ page checksum

/// A one-page store of `page_size` bytes whose payload is seeded random
/// bytes up to 64 bytes short of capacity, so the page also carries
/// zero padding.
std::string SealedRandomPage(uint32_t page_size, uint64_t seed) {
  Rng rng(seed);
  std::string payload(storage::PageCapacity(page_size) - 64, '\0');
  for (char& c : payload) c = static_cast<char>(rng.Uniform(256));
  PageWriter w(page_size);
  w.BeginPage(PageType::kNodes);
  w.Append(payload.data(), payload.size());
  return w.Finish();
}

bool PageValid(const std::string& page) {
  return storage::ValidatePage(page.data(), page.size(), 0).ok();
}

void FlipBit(std::string* page, size_t bit) {
  (*page)[bit / 8] = static_cast<char>((*page)[bit / 8] ^ (1 << (bit % 8)));
}

constexpr uint32_t kChecksumPageSizes[] = {512, 4096, 65536};

TEST(PageChecksumTest, GoldenValue) {
  // A fixed page: payload byte i is (i * 131 + 7) mod 256. Changing
  // the checksum algorithm changes this value and needs a new store
  // version.
  std::string page(4096, '\0');
  for (size_t i = storage::kPageHeaderBytes; i < page.size(); ++i) {
    page[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  storage::PageHeader header;
  header.type = PageType::kChildEntries;
  header.page_id = 7;
  header.payload_bytes = 4000;
  storage::EncodePageHeader(header, page.data());
  EXPECT_EQ(storage::PageChecksum(page.data(), page.size()),
            0x9285e981df5de8b7ULL);
}

TEST(PageChecksumTest, EverySingleBitFlipIsDetected) {
  for (uint32_t page_size : {512u, 4096u}) {
    const std::string sealed = SealedRandomPage(page_size, page_size);
    ASSERT_TRUE(PageValid(sealed));
    std::string page = sealed;
    for (size_t bit = 0; bit < size_t{page_size} * 8; ++bit) {
      FlipBit(&page, bit);
      EXPECT_FALSE(PageValid(page)) << page_size << "-byte page, bit " << bit;
      FlipBit(&page, bit);
    }
  }
}

TEST(PageChecksumTest, EveryHeaderBitFlipIsDetected) {
  // The header is 192 bits: magic, type, flags, page id, payload size
  // and the checksum itself. Type and the low payload-size bits are
  // caught only because the checksum covers them.
  for (uint32_t page_size : kChecksumPageSizes) {
    std::string page = SealedRandomPage(page_size, 5);
    ASSERT_TRUE(PageValid(page));
    for (size_t bit = 0; bit < storage::kPageHeaderBytes * 8; ++bit) {
      FlipBit(&page, bit);
      const Status status =
          storage::ValidatePage(page.data(), page.size(), 0);
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << page_size << "-byte page, header bit " << bit;
      FlipBit(&page, bit);
    }
  }
}

TEST(PageChecksumTest, SeededMultiBitFlipsAreDetected) {
  for (uint32_t page_size : kChecksumPageSizes) {
    const std::string sealed = SealedRandomPage(page_size, 11);
    Rng rng(page_size + 1);
    for (int trial = 0; trial < 10000; ++trial) {
      // Distinct positions: flipping one bit twice would restore it.
      std::set<size_t> bits;
      const size_t want = 2 + rng.Uniform(7);
      while (bits.size() < want) {
        bits.insert(rng.Uniform(size_t{page_size} * 8));
      }
      std::string page = sealed;
      for (size_t bit : bits) FlipBit(&page, bit);
      ASSERT_FALSE(PageValid(page))
          << page_size << "-byte page, trial " << trial;
    }
  }
}

TEST(PageChecksumTest, WordSwapsBlockZeroingAndTailFlipsAreDetected) {
  for (uint32_t page_size : kChecksumPageSizes) {
    const std::string sealed = SealedRandomPage(page_size, 3);
    const size_t payload = storage::kPageHeaderBytes;
    auto swapped = [&](size_t a, size_t b) {
      std::string page = sealed;
      EXPECT_NE(page.substr(a, 8), page.substr(b, 8));
      std::swap_ranges(page.begin() + a, page.begin() + a + 8,
                       page.begin() + b);
      return page;
    };
    // Words 32 bytes apart feed the same lane; 8 bytes apart, two
    // different lanes.
    EXPECT_FALSE(PageValid(swapped(payload + 64, payload + 96)));
    EXPECT_FALSE(PageValid(swapped(payload + 64, payload + 72)));

    std::string zeroed = sealed;
    std::fill_n(zeroed.begin() + payload + 128, 32, '\0');
    ASSERT_NE(zeroed, sealed);
    EXPECT_FALSE(PageValid(zeroed));

    // The payload is never a multiple of 32 bytes, so the last byte is
    // hashed by the tail loop, not the lanes.
    std::string tail = sealed;
    tail.back() ^= 0x01;
    EXPECT_FALSE(PageValid(tail));
  }
}

// ------------------------------------------------------ BufferManager

TEST(BufferManagerTest, HitAvoidsRereading) {
  BufferManager pool(64 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(4)));
  ASSERT_TRUE(id.ok());

  auto first = pool.Pin(id.value(), 2);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().payload_bytes(), 16u);
  EXPECT_EQ(first.value().payload()[0], 'b');  // page 2 = data page 1
  EXPECT_EQ(pool.stats().reads, 1u);

  auto second = pool.Pin(id.value(), 2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().payload()[0], 'b');
  EXPECT_EQ(pool.stats().reads, 1u);  // served from the pool
  EXPECT_EQ(pool.stats().pins, 2u);
}

TEST(BufferManagerTest, RejectsMismatchedSources) {
  BufferManager pool(64 * kPage, kPage);
  EXPECT_FALSE(pool.RegisterSource(nullptr).ok());
  auto mismatched =
      pool.RegisterSource(OpenBlob(MakeRawStore(2, 2 * kPage)));
  EXPECT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST(BufferManagerTest, UnknownSourceAndOutOfRangePage) {
  BufferManager pool(64 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(2)));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(pool.Pin(9999, 0).status().code(), StatusCode::kNotFound);
  // The store has pages 0..2; 3 is past the end.
  EXPECT_EQ(pool.Pin(id.value(), 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BufferManagerTest, ClockEvictsUnpinnedFrames) {
  BufferManager pool(2 * kPage, kPage);  // 2 frames
  ASSERT_EQ(pool.frame_count(), 2u);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(8)));
  ASSERT_TRUE(id.ok());
  // Two sequential sweeps over 9 pages through 2 frames: the second
  // sweep cannot hit (the pool is too small), so everything is read
  // again and the clock must evict constantly.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (uint32_t page = 1; page <= 8; ++page) {
      auto pin = pool.Pin(id.value(), page);
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      EXPECT_EQ(pin.value().payload()[0],
                static_cast<char>('a' + (page - 1) % 26));
    }
  }
  const BufferManager::Stats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.reads, 8u);
  EXPECT_EQ(stats.checksum_failures, 0u);
}

TEST(BufferManagerTest, ExhaustedWhenEveryFrameIsPinned) {
  BufferManager pool(2 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(4)));
  ASSERT_TRUE(id.ok());
  auto a = pool.Pin(id.value(), 1);
  auto b = pool.Pin(id.value(), 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = pool.Pin(id.value(), 3);
  EXPECT_EQ(c.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(pool.stats().exhausted, 0u);
  a.value().Release();
  auto retry = pool.Pin(id.value(), 3);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(BufferManagerTest, DropSourceFreesFramesAndForgetsTheId) {
  BufferManager pool(4 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(3)));
  ASSERT_TRUE(id.ok());
  for (uint32_t page = 0; page <= 3; ++page) {
    auto pin = pool.Pin(id.value(), page);
    ASSERT_TRUE(pin.ok());
  }
  pool.DropSource(id.value());
  EXPECT_EQ(pool.Pin(id.value(), 1).status().code(),
            StatusCode::kNotFound);
  // All four frames are free again: a fresh source can fill the pool
  // without evicting.
  const uint64_t evictions_before = pool.stats().evictions;
  auto fresh = pool.RegisterSource(OpenBlob(MakeRawStore(3)));
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.value(), id.value());  // ids are never reused
  for (uint32_t page = 0; page <= 3; ++page) {
    auto pin = pool.Pin(fresh.value(), page);
    ASSERT_TRUE(pin.ok());
  }
  EXPECT_EQ(pool.stats().evictions, evictions_before);
}

// ------------------------------------- BufferManager, multi-threaded

TEST(BufferManagerConcurrencyTest, HammerSharedPool) {
  // 8 threads chase 9 pages through a 4-frame pool: constant eviction,
  // constant contention on the same shards. Every pin must see the
  // right payload and the pool must finish with nothing pinned.
  BufferManager pool(4 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(8)));
  ASSERT_TRUE(id.ok());
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const uint32_t page = 1 + (static_cast<uint32_t>(i) * 7 +
                                   static_cast<uint32_t>(t)) %
                                      8;
        auto pin = pool.Pin(id.value(), page);
        if (!pin.ok()) {
          // A full pool is legal under this much concurrency; any
          // other failure is not.
          if (pin.status().code() != StatusCode::kUnavailable) {
            failures.fetch_add(1);
          }
          continue;
        }
        if (pin.value().payload()[0] !=
            static_cast<char>('a' + (page - 1) % 26)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Everything released: a sweep wider than the pool succeeds.
  for (uint32_t page = 0; page <= 8; ++page) {
    auto pin = pool.Pin(id.value(), page);
    EXPECT_TRUE(pin.ok()) << pin.status().ToString();
  }
}

TEST(BufferManagerConcurrencyTest, ConcurrentPinsOfOnePageLoadOnce) {
  BufferManager pool(8 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(4)));
  ASSERT_TRUE(id.ok());
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto pin = pool.Pin(id.value(), 2);
        if (!pin.ok() || pin.value().payload()[0] != 'b') {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // All 1600 pins of the one page resolved to a single read: the
  // kLoading state made racers wait instead of re-reading.
  EXPECT_EQ(pool.stats().reads, 1u);
  EXPECT_EQ(pool.stats().evictions, 0u);
}

TEST(BufferManagerConcurrencyTest, RegisterAndDropRaces) {
  BufferManager pool(4 * kPage, kPage);
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto id = pool.RegisterSource(OpenBlob(MakeRawStore(3)));
        if (!id.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (uint32_t page = 0; page <= 3; ++page) {
          auto pin = pool.Pin(id.value(), page);
          if (!pin.ok() &&
              pin.status().code() != StatusCode::kUnavailable) {
            failures.fetch_add(1);
          }
        }
        pool.DropSource(id.value());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// ------------------------------------------------------------ PagedCst

cst::Cst BuildFullCst(const tree::Tree& data) {
  auto pst = suffix::PathSuffixTree::Build(data);
  cst::CstOptions options;
  options.prune_threshold = 1;
  return cst::Cst::Build(data, pst, options);
}

std::shared_ptr<const cst::PagedCst> OpenPaged(const cst::Cst& memory,
                                               size_t page_size,
                                               size_t pool_bytes) {
  auto blob = memory.SerializePaged(page_size);
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  cst::PagedCstOptions options;
  options.pool_bytes = pool_bytes;
  auto paged = cst::PagedCst::Open(OpenBlob(std::move(blob).value()),
                                   options);
  EXPECT_TRUE(paged.ok()) << paged.status().ToString();
  return std::move(paged).value();
}

/// Every observable surface of the paged reader must agree with the
/// in-memory CST it was serialized from, node by node.
void ExpectViewsAgree(const cst::Cst& memory, const cst::CstView& paged) {
  ASSERT_EQ(paged.node_count(), memory.node_count());
  EXPECT_EQ(paged.signature_count(), memory.signature_count());
  EXPECT_EQ(paged.signature_length(), memory.signature_length());
  EXPECT_EQ(paged.data_node_count(), memory.data_node_count());
  EXPECT_EQ(paged.prune_threshold(), memory.prune_threshold());
  EXPECT_EQ(paged.size_bytes(), memory.size_bytes());
  EXPECT_EQ(paged.max_value_chars(), memory.max_value_chars());
  EXPECT_EQ(paged.labels().size(), memory.labels().size());

  std::vector<suffix::ChildIndex::Entry> expected_children;
  std::vector<suffix::ChildIndex::Entry> actual_children;
  sethash::Signature scratch;
  for (cst::CstNodeId node = 0; node < memory.node_count(); ++node) {
    EXPECT_EQ(paged.GetSymbol(node), memory.GetSymbol(node));
    EXPECT_EQ(paged.Parent(node), memory.Parent(node));
    EXPECT_EQ(paged.Depth(node), memory.Depth(node));
    EXPECT_EQ(paged.StartsWithTag(node), memory.StartsWithTag(node));
    EXPECT_DOUBLE_EQ(paged.PresenceCount(node),
                     memory.PresenceCount(node));
    EXPECT_DOUBLE_EQ(paged.OccurrenceCount(node),
                     memory.OccurrenceCount(node));

    memory.CopyChildren(node, &expected_children);
    paged.CopyChildren(node, &actual_children);
    ASSERT_EQ(actual_children.size(), expected_children.size());
    for (size_t i = 0; i < expected_children.size(); ++i) {
      EXPECT_EQ(actual_children[i].symbol, expected_children[i].symbol);
      EXPECT_EQ(actual_children[i].child, expected_children[i].child);
    }

    sethash::Signature memory_scratch;
    const sethash::Signature* expected =
        memory.GetSignature(node, &memory_scratch);
    const sethash::Signature* actual = paged.GetSignature(node, &scratch);
    ASSERT_EQ(actual != nullptr, expected != nullptr);
    if (expected != nullptr) {
      EXPECT_EQ(*actual, *expected);
    }

    // Step must agree along every real edge and on a miss.
    for (const auto& entry : expected_children) {
      EXPECT_EQ(paged.Step(node, entry.symbol),
                memory.Step(node, entry.symbol));
    }
    EXPECT_EQ(paged.Step(node, cst::CstView::kUnknownSymbol),
              cst::kNoCstNode);
  }
  EXPECT_EQ(paged.storage_error_count(), 0u);
  EXPECT_TRUE(paged.storage_health().ok());
}

TEST(PagedCstTest, RoundTripMatchesInMemory) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  auto paged = OpenPaged(memory, 4096, 64 * 4096);
  ASSERT_NE(paged, nullptr);
  ExpectViewsAgree(memory, *paged);
}

TEST(PagedCstTest, TinyPoolStaysCorrectWhileEvicting) {
  data::DblpOptions gen;
  gen.target_bytes = 64 * 1024;
  const tree::Tree data = data::GenerateDblp(gen);
  const cst::Cst memory = BuildFullCst(data);
  // Two frames of 512 bytes against a store much larger than that:
  // every walk churns the pool.
  auto paged = OpenPaged(memory, 512, 2 * 512);
  ASSERT_NE(paged, nullptr);
  ExpectViewsAgree(memory, *paged);
  EXPECT_GT(paged->buffer().stats().evictions, 0u);
}

/// Pins that `call` takes from `paged`'s pool.
template <typename Call>
uint64_t PinsTaken(const cst::PagedCst& paged, Call&& call) {
  const uint64_t before = paged.buffer().stats().pins;
  call();
  return paged.buffer().stats().pins - before;
}

TEST(PagedCstTest, AccessorCallsPinPerPageNotPerRecord) {
  data::DblpOptions gen;
  gen.target_bytes = 64 * 1024;
  const cst::Cst memory = BuildFullCst(data::GenerateDblp(gen));
  constexpr uint32_t kPageSize = 4096;
  auto paged = OpenPaged(memory, kPageSize, 64 * kPageSize);
  ASSERT_NE(paged, nullptr);
  // Records per page of the u32 offsets and the 8-byte entries.
  const uint64_t offsets_per_page = storage::PageCapacity(kPageSize) / 4;
  const uint64_t entries_per_page = storage::PageCapacity(kPageSize) / 8;

  std::vector<suffix::ChildIndex::Entry> children;
  std::vector<suffix::ChildIndex::Entry> copied;
  uint64_t lo = 0;  // node's first entry: the children of earlier nodes
  size_t straddling = 0;
  size_t widest = 0;
  for (cst::CstNodeId node = 0; node < memory.node_count(); ++node) {
    memory.CopyChildren(node, &children);
    const uint64_t hi = lo + children.size();
    const uint64_t offset_pages =
        node / offsets_per_page == (node + 1) / offsets_per_page ? 1 : 2;
    const uint64_t entry_pages =
        hi == lo ? 0 : (hi - 1) / entries_per_page - lo / entries_per_page + 1;
    straddling += entry_pages > 1;
    widest = std::max(widest, children.size());

    // CopyChildren walks the whole span: one pin per page it spans,
    // not one per child.
    EXPECT_EQ(PinsTaken(*paged, [&] { paged->CopyChildren(node, &copied); }),
              offset_pages + entry_pages)
        << "node " << node << " with " << children.size() << " children";
    ASSERT_EQ(copied.size(), children.size());

    // Step's binary search, on a hit and on a miss, pins a span that
    // lies on one entries page once. A span across a page boundary may
    // pin again whenever a probe crosses it: at most once per probe
    // (the search's probes plus the final read).
    const uint64_t step_bound =
        entry_pages > 1 ? offset_pages + std::bit_width(children.size()) + 1
                        : offset_pages + entry_pages;
    suffix::Symbol miss = 0;
    for (const auto& child : children) {
      if (child.symbol == miss) ++miss;
      cst::CstNodeId stepped = cst::kNoCstNode;
      EXPECT_LE(PinsTaken(*paged,
                          [&] { stepped = paged->Step(node, child.symbol); }),
                step_bound)
          << "node " << node << ", symbol " << child.symbol;
      EXPECT_EQ(stepped, child.child);
    }
    cst::CstNodeId stepped = 0;
    EXPECT_LE(PinsTaken(*paged, [&] { stepped = paged->Step(node, miss); }),
              step_bound);
    EXPECT_EQ(stepped, cst::kNoCstNode);
    lo = hi;
  }
  // The store exercises the interesting shapes: a span across an
  // entries page boundary, and a node far wider than any binary search
  // would pin child by child.
  EXPECT_GT(straddling, 0u);
  EXPECT_GT(widest, 16u);
  EXPECT_EQ(paged->storage_error_count(), 0u);
}

TEST(PagedCstTest, OpenFileMapsAStore) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  auto blob = memory.SerializePaged(4096);
  ASSERT_TRUE(blob.ok());
  const std::string path =
      testing::TempDir() + "/storage_test_load.twcst03";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.value().data(),
              static_cast<std::streamsize>(blob.value().size()));
    ASSERT_TRUE(out.good());
  }
  auto view = cst::PagedCst::OpenFile(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ExpectViewsAgree(memory, *view.value());

  EXPECT_EQ(cst::PagedCst::OpenFile(path + ".missing").status().code(),
            StatusCode::kNotFound);
}

TEST(PagedCstTest, MaterializeRebuildsTheInMemoryCst) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  auto paged = OpenPaged(memory, 512, 64 * 512);
  ASSERT_NE(paged, nullptr);
  auto round = cst::Cst::Materialize(*paged);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  ExpectViewsAgree(round.value(), *paged);
  // The full loop — build, page out, page in, materialize, page out —
  // lands on the exact bytes of the first store.
  EXPECT_EQ(round.value().SerializePaged(512).value(),
            memory.SerializePaged(512).value());
}

TEST(PagedCstTest, SerializePagedRejectsImpossiblePageSizes) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  // Not a power of two.
  EXPECT_EQ(memory.SerializePaged(1000).status().code(),
            StatusCode::kInvalidArgument);
  // Valid page size, but a default-length signature record cannot fit
  // the 232-byte payload of a 256-byte page.
  EXPECT_EQ(memory.SerializePaged(256).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ hostile stores

/// Recomputes and stores page `id`'s checksum after a tamper, so the
/// page itself stays "valid" and the corruption must be caught by a
/// higher layer (directory bounds, geometry, ...).
void ResealPage(std::string* blob, uint32_t id, uint32_t page_size) {
  char* page = blob->data() + static_cast<size_t>(id) * page_size;
  const uint64_t checksum = storage::PageChecksum(page, page_size);
  std::memcpy(page + storage::kPageChecksumOffset, &checksum,
              sizeof(checksum));
}

std::string SerializedFigureOne(uint32_t page_size) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  auto blob = memory.SerializePaged(page_size);
  EXPECT_TRUE(blob.ok());
  return std::move(blob).value();
}

TEST(Twcst03HostileTest, TruncatedStoreFailsToOpen) {
  std::string blob = SerializedFigureOne(512);
  // Mid-page truncation: the byte count no longer matches the geometry.
  std::string truncated = blob.substr(0, blob.size() - 100);
  EXPECT_EQ(BlobPageSource::Open(truncated, "truncated").status().code(),
            StatusCode::kCorruption);
  // Whole trailing page gone: still a corruption (page_count in the
  // meta page promises more bytes than exist).
  std::string short_one = blob.substr(0, blob.size() - 512);
  EXPECT_EQ(BlobPageSource::Open(short_one, "short").status().code(),
            StatusCode::kCorruption);
  // Shorter than the geometry prefix itself.
  EXPECT_FALSE(BlobPageSource::Open(blob.substr(0, 10), "stub").ok());
}

TEST(Twcst03HostileTest, TrailingBytesRejectedByBothSources) {
  const std::string blob = SerializedFigureOne(512);
  ASSERT_TRUE(BlobPageSource::Open(blob, "exact").ok());
  auto extended = BlobPageSource::Open(blob + "x", "extended");
  EXPECT_EQ(extended.status().code(), StatusCode::kCorruption);
  EXPECT_NE(std::string(extended.status().message()).find("trailing bytes"),
            std::string::npos);
  // A whole extra page is trailing bytes too: the meta page's
  // page_count, not the file size, says where the store ends.
  EXPECT_EQ(BlobPageSource::Open(blob + std::string(512, '\0'), "padded")
                .status()
                .code(),
            StatusCode::kCorruption);

  const std::string path = testing::TempDir() + "/storage_test_trailing";
  auto map = [&](const std::string& bytes) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    return storage::MmapPageSource::Open(path);
  };
  EXPECT_TRUE(map(blob).ok());
  EXPECT_EQ(map(blob + "x").status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(Twcst03HostileTest, BitFlipInDataPageDegradesNotCrashes) {
  std::string blob = SerializedFigureOne(512);
  // Flip one payload byte of the first kNodes page. The page's stored
  // checksum no longer matches, so pinning it must fail validation.
  uint32_t nodes_page = 0;
  for (uint32_t id = 1; id * 512 < blob.size(); ++id) {
    storage::PageHeader header;
    ASSERT_TRUE(storage::DecodePageHeader(
        blob.data() + static_cast<size_t>(id) * 512, 512, &header));
    if (header.type == PageType::kNodes) {
      nodes_page = id;
      break;
    }
  }
  ASSERT_GT(nodes_page, 0u);
  blob[static_cast<size_t>(nodes_page) * 512 + storage::kPageHeaderBytes] ^=
      0x40;

  cst::PagedCstOptions options;
  options.pool_bytes = 8 * 512;
  auto paged = cst::PagedCst::Open(OpenBlob(std::move(blob)), options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const auto& view = *paged.value();
  // Reading any node on the poisoned page degrades to a miss and is
  // recorded; it must not crash or return garbage.
  for (cst::CstNodeId node = 0; node < view.node_count(); ++node) {
    (void)view.PresenceCount(node);
    (void)view.GetSymbol(node);
  }
  EXPECT_GT(view.storage_error_count(), 0u);
  EXPECT_EQ(view.storage_health().code(), StatusCode::kCorruption);
  EXPECT_GT(view.buffer().stats().checksum_failures, 0u);
}

TEST(Twcst03HostileTest, BitFlipInMetaPageFailsOpen) {
  std::string blob = SerializedFigureOne(512);
  // Flip a byte past the geometry prefix (so the probe succeeds and
  // the checksum catches it when the meta page is pinned).
  blob[storage::kPageHeaderBytes + 60] ^= 0x01;
  cst::PagedCstOptions options;
  auto paged = cst::PagedCst::Open(OpenBlob(std::move(blob)), options);
  EXPECT_EQ(paged.status().code(), StatusCode::kCorruption);
}

TEST(Twcst03HostileTest, OutOfRangeSectionPageRejectedAtOpen) {
  std::string blob = SerializedFigureOne(512);
  // The nodes section's first_page lives at meta payload offset 68.
  // Point it far past the end of the store and re-seal the page so
  // only the directory — not the checksum — is wrong.
  const uint32_t bogus = 0x00ffffffu;
  std::memcpy(blob.data() + storage::kPageHeaderBytes + 68, &bogus, 4);
  ResealPage(&blob, 0, 512);
  cst::PagedCstOptions options;
  auto paged = cst::PagedCst::Open(OpenBlob(std::move(blob)), options);
  EXPECT_EQ(paged.status().code(), StatusCode::kCorruption);
}

TEST(Twcst03HostileTest, OversizedPageCountRejectedAtOpen) {
  std::string blob = SerializedFigureOne(512);
  // Claim 1M pages in the geometry; the blob has a handful. The page
  // source must refuse the mapping instead of handing out reads past
  // the end.
  const uint32_t bogus = 1u << 20;
  std::memcpy(blob.data() + storage::kPageHeaderBytes + 16, &bogus, 4);
  ResealPage(&blob, 0, 512);
  EXPECT_EQ(BlobPageSource::Open(blob, "oversized").status().code(),
            StatusCode::kCorruption);
}

TEST(Twcst03HostileTest, VersionOneStoreIsRefusedByVersion) {
  // A store claiming version 1 is refused for its version before any
  // page checksum runs: both with its meta page resealed (every page
  // otherwise valid) and with the stale checksum a store written under
  // another page checksum carries.
  const std::string current = SerializedFigureOne(512);
  std::string stale = current;
  const uint32_t version = 1;
  std::memcpy(stale.data() + storage::kPageHeaderBytes +
                  sizeof(storage::kStoreMagic),
              &version, sizeof(version));
  std::string resealed = stale;
  ResealPage(&resealed, 0, 512);
  ASSERT_FALSE(storage::ValidatePage(stale.data(), 512, 0).ok());
  ASSERT_TRUE(storage::ValidatePage(resealed.data(), 512, 0).ok());

  auto expect_version_one = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_NE(std::string(status.message()).find("version 1"),
              std::string::npos)
        << status.ToString();
  };
  const std::string path = testing::TempDir() + "/storage_test_v1.twcst03";
  for (const std::string* blob : {&stale, &resealed}) {
    SCOPED_TRACE(blob == &stale ? "stale checksum" : "resealed");
    expect_version_one(BlobPageSource::Open(*blob, "v1").status());
    expect_version_one(cst::Cst::Deserialize(*blob).status());
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(blob->data(), static_cast<std::streamsize>(blob->size()));
      ASSERT_TRUE(out.good());
    }
    expect_version_one(cst::PagedCst::OpenFile(path).status());
  }
  std::remove(path.c_str());
}

// --------------------------------------------------------- failpoints

class StorageFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FailpointRegistry::Get().Reset(); }
  void TearDown() override { util::FailpointRegistry::Get().Reset(); }
};

TEST_F(StorageFailpointTest, ReadErrorSurfacesAndRecovers) {
  BufferManager pool(8 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(2)));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(util::FailpointRegistry::Get()
                  .Configure("storage/read", "error")
                  .ok());
  auto failed = pool.Pin(id.value(), 1);
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  // Failed loads are not cached: once the failpoint clears, the same
  // pin succeeds.
  util::FailpointRegistry::Get().Reset();
  auto pin = pool.Pin(id.value(), 1);
  EXPECT_TRUE(pin.ok()) << pin.status().ToString();
  EXPECT_EQ(pin.value().payload()[0], 'a');
}

TEST_F(StorageFailpointTest, ChecksumErrorCountsAndRecovers) {
  BufferManager pool(8 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(2)));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(util::FailpointRegistry::Get()
                  .Configure("storage/checksum", "error")
                  .ok());
  auto failed = pool.Pin(id.value(), 1);
  EXPECT_EQ(failed.status().code(), StatusCode::kCorruption);
  EXPECT_NE(std::string(failed.status().message())
                .find("checksum mismatch (injected)"),
            std::string::npos);
  EXPECT_GE(pool.stats().checksum_failures, 1u);
  util::FailpointRegistry::Get().Reset();
  EXPECT_TRUE(pool.Pin(id.value(), 1).ok());
}

TEST_F(StorageFailpointTest, PagedCstDegradesUnderInjectedChecksums) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  // A 2-frame pool so post-arm accesses miss (hits would bypass the
  // load path where the failpoint lives).
  auto paged = OpenPaged(memory, 512, 2 * 512);
  ASSERT_NE(paged, nullptr);
  ASSERT_TRUE(util::FailpointRegistry::Get()
                  .Configure("storage/checksum", "error")
                  .ok());
  EXPECT_EQ(paged->PresenceCount(1), 0.0);  // degraded to a miss
  EXPECT_GT(paged->storage_error_count(), 0u);
  EXPECT_EQ(paged->storage_health().code(), StatusCode::kCorruption);
  // Disarm: reads work again; the sticky first error remains visible.
  util::FailpointRegistry::Get().Reset();
  EXPECT_EQ(paged->PresenceCount(1), memory.PresenceCount(1));
  EXPECT_EQ(paged->storage_health().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace twig
