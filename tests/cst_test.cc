#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cst/cst.h"
#include "storage/page.h"
#include "test_trees.h"
#include "util/failpoint.h"

namespace twig::cst {
namespace {

using suffix::PathSuffixTree;
using tree::Tree;

/// Walks the CST along "tags:chars" (see suffix_test.cc).
CstNodeId Find(const Cst& cst, const std::string& spec) {
  const size_t colon = spec.find(':');
  const std::string tags =
      spec.substr(0, colon == std::string::npos ? spec.size() : colon);
  CstNodeId node = cst.root();
  if (!tags.empty()) {
    size_t start = 0;
    while (start <= tags.size()) {
      size_t dot = tags.find('.', start);
      const std::string tag =
          tags.substr(start, dot == std::string::npos ? std::string::npos
                                                      : dot - start);
      node = cst.Step(node, cst.TagSymbolFor(tag));
      if (node == kNoCstNode) return kNoCstNode;
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
  }
  if (colon != std::string::npos) {
    for (char c : spec.substr(colon + 1)) {
      node = cst.Step(node, suffix::CharSymbol(c));
      if (node == kNoCstNode) return kNoCstNode;
    }
  }
  return node;
}

Cst BuildFullCst(const Tree& data) {
  auto pst = PathSuffixTree::Build(data);
  CstOptions options;
  options.prune_threshold = 1;
  return Cst::Build(data, pst, options);
}

TEST(CstTest, PresenceCountsFigureOne) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  // Presence = distinct rooting nodes.
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "book")), 3.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "book.author")), 3.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "author")), 6.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "book.year:Y1")), 3.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "dblp.book")), 1.0);
}

TEST(CstTest, OccurrenceCountsFigureOne) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  // Occurrence = node-sequence instances: 6 (book,author) pairs
  // (the paper's Section 5 example numbers).
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "book.author")), 6.0);
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "book.year:Y1")), 3.0);
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "dblp.book.author")), 6.0);
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "author:A1")), 3.0);
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "author:A2")), 2.0);
}

TEST(CstTest, CharOnlySubpathCounts) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  // ":A" occurs once per author value (6) plus nowhere else.
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, ":A")), 6.0);
  // ":1" occurs in A1 (x3), T1 (x1), Y1 (x3).
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, ":1")), 7.0);
}

TEST(CstTest, RepeatedLabelsOnOnePathPresenceIsDistinctRoots) {
  // a/b/a/b chain with two leaves: subpath "a.b" roots at two distinct
  // nodes even though markers alternate (the regression that forces
  // root-at-a-time accumulation).
  Tree data;
  auto a1 = data.AddRoot("a");
  auto b1 = data.AddElement(a1, "b");
  auto a2 = data.AddElement(b1, "a");
  auto b2 = data.AddElement(a2, "b");
  data.AddValue(b2, "x");
  data.AddValue(b2, "y");
  Cst cst = BuildFullCst(data);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "a.b")), 2.0);
  EXPECT_DOUBLE_EQ(cst.OccurrenceCount(Find(cst, "a.b")), 2.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "a")), 2.0);
  EXPECT_DOUBLE_EQ(cst.PresenceCount(Find(cst, "b.a.b")), 1.0);
}

TEST(CstTest, SignaturesOnlyOnTagRootedSubpaths) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  EXPECT_NE(cst.GetSignature(Find(cst, "book.author")), nullptr);
  EXPECT_NE(cst.GetSignature(Find(cst, "author:A1")), nullptr);
  EXPECT_EQ(cst.GetSignature(Find(cst, ":A")), nullptr);
}

TEST(CstTest, SignatureCapturesRootingSets) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  // "book.author" and "book.year" are rooted at the same 3 book nodes:
  // identical sets, so identical signatures and resemblance 1.
  const auto* sa = cst.GetSignature(Find(cst, "book.author"));
  const auto* sy = cst.GetSignature(Find(cst, "book.year"));
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sy, nullptr);
  EXPECT_EQ(*sa, *sy);
  // "author:A3" roots at 1 author node; disjoint from year nodes.
  const auto* s3 = cst.GetSignature(Find(cst, "author:A3"));
  ASSERT_NE(s3, nullptr);
  EXPECT_NE(*s3, *sa);
}

TEST(CstTest, PruningKeepsFrequentDropsRare) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  CstOptions options;
  options.prune_threshold = 3;
  Cst cst = Cst::Build(data, pst, options);
  EXPECT_NE(Find(cst, "book.author"), kNoCstNode);  // pt = 6
  EXPECT_NE(Find(cst, "year:Y1"), kNoCstNode);      // pt = 3
  EXPECT_EQ(Find(cst, "title:T1"), kNoCstNode);     // pt = 1
  EXPECT_EQ(Find(cst, "author:A3"), kNoCstNode);    // pt = 1
}

TEST(CstTest, PrunedCstClosedUnderSubpaths) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  for (uint32_t threshold : {2, 3, 6}) {
    CstOptions options;
    options.prune_threshold = threshold;
    Cst cst = Cst::Build(data, pst, options);
    // Every node's parent exists and suffix of every retained subpath
    // is retained: spot-check with the known hierarchy.
    if (Find(cst, "dblp.book.author") != kNoCstNode) {
      EXPECT_NE(Find(cst, "book.author"), kNoCstNode);
      EXPECT_NE(Find(cst, "author"), kNoCstNode);
      EXPECT_NE(Find(cst, "dblp.book"), kNoCstNode);
    }
  }
}

TEST(CstTest, BudgetedBuildRespectsBudget) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  CstOptions options;
  options.space_budget_bytes = 2000;
  Cst cst = Cst::Build(data, pst, options);
  EXPECT_LE(cst.size_bytes(), 2000u);
  EXPECT_GT(cst.node_count(), 1u);
  // A tighter budget retains no more nodes.
  options.space_budget_bytes = 600;
  Cst tight = Cst::Build(data, pst, options);
  EXPECT_LE(tight.size_bytes(), 600u);
  EXPECT_LE(tight.node_count(), cst.node_count());
}

TEST(CstTest, LongestMatch) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  std::vector<suffix::Symbol> symbols = {
      cst.TagSymbolFor("book"), cst.TagSymbolFor("author"),
      suffix::CharSymbol('A'), suffix::CharSymbol('9')};
  auto match = cst.LongestMatch(symbols, 0);
  EXPECT_EQ(match.length, 3u);  // book.author.A but not the '9'
  EXPECT_EQ(match.node, Find(cst, "book.author:A"));
  auto from1 = cst.LongestMatch(symbols, 1);
  EXPECT_EQ(from1.length, 2u);  // author.A
}

TEST(CstTest, UnknownTagNeverMatches) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  EXPECT_EQ(cst.TagSymbolFor("nosuchtag"), Cst::kUnknownSymbol);
  EXPECT_EQ(cst.Step(cst.root(), Cst::kUnknownSymbol), kNoCstNode);
}

TEST(CstSerializeTest, RoundTripPreservesEverything) {
  Tree data = testutil::FigureOneTree();
  Cst original = BuildFullCst(data);
  const std::string store = original.SerializePaged().value();
  auto restored = Cst::Deserialize(store);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->node_count(), original.node_count());
  EXPECT_EQ(restored->signature_count(), original.signature_count());
  EXPECT_EQ(restored->data_node_count(), original.data_node_count());
  EXPECT_EQ(restored->prune_threshold(), original.prune_threshold());
  EXPECT_EQ(restored->size_bytes(), original.size_bytes());
  // Structure, counts, and signatures survive.
  for (const char* spec : {"book.author", "book.year:Y1", "author:A1", ":A"}) {
    CstNodeId a = Find(original, spec);
    CstNodeId b = Find(*restored, spec);
    ASSERT_NE(a, kNoCstNode) << spec;
    ASSERT_NE(b, kNoCstNode) << spec;
    EXPECT_DOUBLE_EQ(restored->PresenceCount(b), original.PresenceCount(a));
    EXPECT_DOUBLE_EQ(restored->OccurrenceCount(b),
                     original.OccurrenceCount(a));
    const auto* sa = original.GetSignature(a);
    const auto* sb = restored->GetSignature(b);
    ASSERT_EQ(sa == nullptr, sb == nullptr) << spec;
    if (sa != nullptr) {
      EXPECT_EQ(*sa, *sb);
    }
  }
  // Serialize -> Deserialize -> Serialize is byte-identical.
  EXPECT_EQ(restored->SerializePaged().value(), store);
}

TEST(CstTest, OutOfRangeSymbolsNeverMatch) {
  // Regression: the old child map keyed (node << 22) | symbol without
  // masking the symbol, so stepping node n with symbol (1 << 22) | s
  // aliased ((n + 1) << 22) | s and returned node n+1's child along s.
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  std::vector<suffix::Symbol> in_range;
  for (const char* tag : {"dblp", "book", "author", "year"}) {
    ASSERT_NE(cst.TagSymbolFor(tag), Cst::kUnknownSymbol) << tag;
    in_range.push_back(cst.TagSymbolFor(tag));
  }
  for (char c : {'A', 'Y', '1'}) in_range.push_back(suffix::CharSymbol(c));
  for (CstNodeId n = 0; n < static_cast<CstNodeId>(cst.node_count()); ++n) {
    EXPECT_EQ(cst.Step(n, Cst::kUnknownSymbol), kNoCstNode);
    EXPECT_EQ(cst.Step(n, suffix::kMaxSymbol + 1), kNoCstNode);
    for (suffix::Symbol s : in_range) {
      EXPECT_EQ(cst.Step(n, s | (1u << 22)), kNoCstNode);
    }
  }
}

// The format tests below run on a small store: the full Figure 1 CST
// with 8-component signatures in 256-byte pages, so sweeps over every
// byte stay fast.
constexpr size_t kSmallPage = 256;

Cst SmallCst() {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  CstOptions options;
  options.prune_threshold = 1;
  options.signature_length = 8;
  return Cst::Build(data, pst, options);
}

std::string SmallStore(const Cst& cst) {
  auto store = cst.SerializePaged(kSmallPage);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

/// Section indices in the meta page's directory.
enum Section { kNodes = 0, kChildOffsets = 1, kChildEntries = 2 };

/// Byte offset of record `index` of `section` in a kSmallPage store,
/// located through the section directory (meta payload offset 68:
/// per section first_page, page_count, record_bytes, records_per_page).
size_t RecordOffset(const std::string& store, Section section,
                    size_t index) {
  uint32_t dir[4];
  std::memcpy(dir, store.data() + storage::kPageHeaderBytes + 68 + 16 * section,
              sizeof(dir));
  const size_t page = dir[0] + index / dir[3];
  return page * kSmallPage + storage::kPageHeaderBytes +
         (index % dir[3]) * dir[2];
}

/// Re-stamps the checksum of the page holding byte `offset`, so an edit
/// there passes page validation and only the decoder's structural
/// checks can catch it.
void ResealPageAt(std::string* store, size_t offset) {
  char* page = store->data() + offset / kSmallPage * kSmallPage;
  const uint64_t checksum = storage::PageChecksum(page, kSmallPage);
  std::memcpy(page + storage::kPageChecksumOffset, &checksum,
              sizeof(checksum));
}

void PatchU32(std::string* store, size_t offset, uint32_t value) {
  std::memcpy(store->data() + offset, &value, sizeof(value));
  ResealPageAt(store, offset);
}

/// Deserialize must reject `store` with a Corruption naming `reason`.
void ExpectCorruption(const std::string& store, const std::string& reason) {
  auto result = Cst::Deserialize(store);
  ASSERT_FALSE(result.ok()) << "expected: " << reason;
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find(reason), std::string::npos)
      << result.status().ToString();
}

TEST(CstSerializeTest, RejectsCorruptInput) {
  const std::string store = SmallStore(SmallCst());
  ASSERT_TRUE(Cst::Deserialize(store).ok());
  ExpectCorruption("garbage", "bad meta page header");
  ExpectCorruption(store.substr(0, store.size() / 2), "store truncated");
  ExpectCorruption(store + "x", "trailing bytes after the last page");
  std::string bad_magic = store;
  bad_magic[0] = 'X';  // page magic
  ExpectCorruption(bad_magic, "bad meta page header");
  std::string bad_format = store;
  bad_format[storage::kPageHeaderBytes] = 'X';  // "TWCST03" store magic
  ExpectCorruption(bad_format, "bad format magic");
}

TEST(CstSerializeTest, RejectsDuplicateLabelNames) {
  // Interning would silently collapse duplicate names and shift every
  // later LabelId, so the store's tag symbols would point at the wrong
  // labels; Deserialize must reject instead.
  std::string store = SmallStore(SmallCst());
  const size_t year = store.find("year");
  ASSERT_NE(year, std::string::npos);
  store.replace(year, 4, "book");
  ResealPageAt(&store, year);
  ExpectCorruption(store, "duplicate label name");
}

TEST(CstSerializeTest, RejectsOutOfRangeNodeSymbol) {
  std::string store = SmallStore(SmallCst());
  PatchU32(&store, RecordOffset(store, kNodes, 1), suffix::kMaxSymbol + 1);
  ExpectCorruption(store, "node symbol out of range");
}

TEST(CstSerializeTest, RejectsTagSymbolWithoutLabel) {
  const Cst cst = SmallCst();
  std::string store = SmallStore(cst);
  const auto missing = static_cast<tree::LabelId>(cst.labels().size());
  PatchU32(&store, RecordOffset(store, kNodes, 1),
           suffix::TagSymbol(missing));
  ExpectCorruption(store, "node tag symbol has no label");
}

TEST(CstSerializeTest, RejectsParentOutOfOrder) {
  std::string store = SmallStore(SmallCst());
  PatchU32(&store, RecordOffset(store, kNodes, 2) + 4, 2);  // parent of 2
  ExpectCorruption(store, "node parent out of order");
}

TEST(CstSerializeTest, RejectsChildEntryDisagreeingWithNodes) {
  // Swap the children of the root's first two edges: each entry still
  // names a valid child of the root, but under the other's symbol.
  const Cst cst = SmallCst();
  ASSERT_GE(cst.ChildrenOf(cst.root()).size(), 2u);
  std::string store = SmallStore(cst);
  const size_t first = RecordOffset(store, kChildEntries, 0) + 4;
  const size_t second = RecordOffset(store, kChildEntries, 1) + 4;
  uint32_t a = 0;
  uint32_t b = 0;
  std::memcpy(&a, store.data() + first, sizeof(a));
  std::memcpy(&b, store.data() + second, sizeof(b));
  PatchU32(&store, first, b);
  PatchU32(&store, second, a);
  ExpectCorruption(store, "child index disagrees with node array");
}

TEST(CstSerializeTest, RejectsChildIndexMissingAnEdge) {
  // Start the root's span one entry late: every remaining edge is
  // right, but the root's first child is no longer reachable.
  std::string store = SmallStore(SmallCst());
  PatchU32(&store, RecordOffset(store, kChildOffsets, 0), 1);
  ExpectCorruption(store, "child index entry count mismatch");
}

TEST(CstSerializeTest, RejectsOutOfRangeSignatureIndex) {
  const Cst cst = SmallCst();
  const CstNodeId book = Find(cst, "book");
  ASSERT_NE(book, kNoCstNode);
  ASSERT_NE(cst.GetSignature(book), nullptr);
  std::string store = SmallStore(cst);
  PatchU32(&store, RecordOffset(store, kNodes, book) + 32,
           static_cast<uint32_t>(cst.signature_count()));
  ExpectCorruption(store, "signature index out of range");
}

TEST(CstSerializeTest, TruncationSweepAlwaysRejects) {
  // The meta page fixes the store's exact length, so every strict
  // prefix must fail cleanly — no crash, no input-controlled
  // allocation.
  const std::string store = SmallStore(SmallCst());
  ASSERT_TRUE(Cst::Deserialize(store).ok());
  for (size_t len = 0; len < store.size(); ++len) {
    auto result = Cst::Deserialize(store.substr(0, len));
    ASSERT_FALSE(result.ok()) << "truncated at " << len;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST(CstSerializeTest, ChecksumCatchesPayloadBitFlips) {
  // Sampled single-bit flips across the whole store: the page
  // checksums catch flips in payload and padding, page validation and
  // the decoder catch the header fields, and bytes the reader never
  // interprets fail the re-serialization check. No flipped store may
  // load.
  const std::string store = SmallStore(SmallCst());
  for (size_t pos = 0; pos < store.size(); pos += 13) {
    std::string flipped = store;
    flipped[pos] ^= 0x10;
    auto result = Cst::Deserialize(flipped);
    ASSERT_FALSE(result.ok()) << "bit flip at " << pos;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST(CstSerializeTest, DeserializeFailpointMapsToCorruption) {
  util::FailpointRegistry::Get().Reset();
  const std::string store = SmallStore(SmallCst());
  ASSERT_TRUE(
      util::FailpointRegistry::Get().Configure("cst/deserialize", "error")
          .ok());
  auto result = Cst::Deserialize(store);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("injected fault"),
            std::string::npos);
  util::FailpointRegistry::Get().Reset();
  EXPECT_TRUE(Cst::Deserialize(store).ok());
}

TEST(CstSerializeTest, ByteFuzzSweepNeverCrashes) {
  // Stamp 0xFF over every 4-byte window in turn: whatever counts or
  // node fields that clobbers, Deserialize must either reject or
  // produce a CST that is safe to walk (bounds hold under ASan).
  const std::string store = SmallStore(SmallCst());
  for (size_t off = 0; off + 4 <= store.size(); ++off) {
    std::string fuzzed = store;
    for (size_t i = 0; i < 4; ++i) fuzzed[off + i] = '\xff';
    auto result = Cst::Deserialize(fuzzed);
    if (result.ok()) {
      CstNodeId node = result->Step(result->root(),
                                    result->TagSymbolFor("book"));
      if (node != kNoCstNode) {
        (void)result->PresenceCount(node);
        (void)result->GetSignature(node);
      }
    }
  }
}

TEST(CstTest, GlobalStats) {
  Tree data = testutil::FigureOneTree();
  Cst cst = BuildFullCst(data);
  EXPECT_EQ(cst.data_node_count(), data.size());
  EXPECT_EQ(cst.prune_threshold(), 1u);
  EXPECT_GT(cst.size_bytes(), 0u);
  EXPECT_EQ(cst.signature_length(), CstOptions{}.signature_length);
}

}  // namespace
}  // namespace twig::cst
