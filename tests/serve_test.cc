#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/canonical.h"
#include "core/estimator.h"
#include "cst/cst.h"
#include "data/generators.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "query/twig.h"
#include "serve/fair_queue.h"
#include "serve/health.h"
#include "serve/result_cache.h"
#include "serve/retry.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/tcp.h"
#include "serve/wire.h"
#include "util/failpoint.h"
#include "suffix/path_suffix_tree.h"
#include "test_trees.h"
#include "tree/tree.h"
#include "xml/xml.h"

namespace twig::serve {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// FairQueue

TEST(FairQueueTest, SingleTenantDegeneratesToFifo) {
  FairQueue<int> q(8);
  for (int i = 0; i < 5; ++i) {
    int item = i;
    ASSERT_EQ(q.TryPush("", item), FairQueue<int>::PushVerdict::kAdmitted);
  }
  for (int i = 0; i < 5; ++i) {
    std::optional<int> item = q.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  const std::vector<TenantStats> stats = q.tenant_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].tenant, kDefaultTenant);  // empty id resolves
  EXPECT_EQ(stats[0].admitted, 5u);
  EXPECT_EQ(stats[0].throttled, 0u);
  q.Close(/*drain=*/true);
}

TEST(FairQueueTest, DeficitRoundRobinDrainsByWeight) {
  TenantPolicy policy;
  policy.overrides["heavy"].weight = 3;
  policy.overrides["light"].weight = 1;
  FairQueue<std::string> q(64, policy);
  // Backlog both tenants, heavy first (ring order is activation order).
  for (int i = 0; i < 12; ++i) {
    std::string heavy = "heavy";
    std::string light = "light";
    ASSERT_EQ(q.TryPush("heavy", heavy),
              FairQueue<std::string>::PushVerdict::kAdmitted);
    ASSERT_EQ(q.TryPush("light", light),
              FairQueue<std::string>::PushVerdict::kAdmitted);
  }
  // DRR grants each tenant `weight` credits per ring pass, so every
  // window of 4 pops serves heavy 3 times and light once.
  std::map<std::string, int> served;
  for (int i = 0; i < 16; ++i) {
    std::optional<std::string> item = q.Pop();
    ASSERT_TRUE(item.has_value());
    ++served[*item];
  }
  EXPECT_EQ(served["heavy"], 12);
  EXPECT_EQ(served["light"], 4);
  q.Close(/*drain=*/false);
}

TEST(FairQueueTest, TokenBucketThrottlesWithARetryHint) {
  TenantPolicy policy;
  policy.overrides["metered"].rate = 5;  // tokens per second
  policy.overrides["metered"].burst = 2;
  FairQueue<int> q(16, policy);
  const auto t0 = FairQueue<int>::Clock::now();
  int item = 0;
  // A fresh tenant may spend its full burst...
  ASSERT_EQ(q.TryPush("metered", item, nullptr, t0),
            FairQueue<int>::PushVerdict::kAdmitted);
  ASSERT_EQ(q.TryPush("metered", item, nullptr, t0),
            FairQueue<int>::PushVerdict::kAdmitted);
  // ...then the bucket is empty and the hint points at the next token
  // (1/rate = 200 ms away).
  std::chrono::milliseconds retry{0};
  ASSERT_EQ(q.TryPush("metered", item, &retry, t0),
            FairQueue<int>::PushVerdict::kThrottled);
  EXPECT_GE(retry.count(), 1);
  EXPECT_LE(retry.count(), 200);
  // A second later the bucket has refilled.
  ASSERT_EQ(q.TryPush("metered", item, nullptr,
                      t0 + std::chrono::seconds(1)),
            FairQueue<int>::PushVerdict::kAdmitted);
  // The unmetered default tenant was never gated.
  ASSERT_EQ(q.TryPush("", item), FairQueue<int>::PushVerdict::kAdmitted);
  const std::vector<TenantStats> stats = q.tenant_stats();
  for (const TenantStats& tenant : stats) {
    if (tenant.tenant == "metered") {
      EXPECT_EQ(tenant.admitted, 3u);
      EXPECT_EQ(tenant.throttled, 1u);
    }
  }
  q.Close(/*drain=*/false);
}

TEST(FairQueueTest, OccupancyCapBoundsAHotTenantsQueueShare) {
  FairQueue<int> q(8);  // two active equal-weight tenants: 4 slots each
  int item = 0;
  ASSERT_EQ(q.TryPush("victim", item),
            FairQueue<int>::PushVerdict::kAdmitted);
  std::chrono::milliseconds retry{0};
  int hot_admitted = 0;
  FairQueue<int>::PushVerdict verdict;
  while ((verdict = q.TryPush("hot", item, &retry)) ==
         FairQueue<int>::PushVerdict::kAdmitted) {
    ++hot_admitted;
    ASSERT_LE(hot_admitted, 8);
  }
  // The flood saturates its weighted share, not the whole queue...
  EXPECT_EQ(hot_admitted, 4);
  EXPECT_EQ(verdict, FairQueue<int>::PushVerdict::kThrottled);
  EXPECT_EQ(retry, std::chrono::milliseconds(10));  // occupancy_retry
  // ...so the victim's pushes keep admitting.
  ASSERT_EQ(q.TryPush("victim", item),
            FairQueue<int>::PushVerdict::kAdmitted);
  q.Close(/*drain=*/false);
}

TEST(FairQueueTest, TotalCapacityStillRejectsAsFull) {
  FairQueue<int> q(4);
  int item = 0;
  // A lone tenant's occupancy share is the whole queue, so the fifth
  // push hits the tenant-independent capacity wall, not a throttle.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(q.TryPush("solo", item),
              FairQueue<int>::PushVerdict::kAdmitted);
  }
  EXPECT_EQ(q.TryPush("solo", item), FairQueue<int>::PushVerdict::kFull);
  q.Close(/*drain=*/false);
}

TEST(FairQueueTest, CloseDrainsOrReturnsLeftovers) {
  FairQueue<int> drained(8);
  for (int i = 0; i < 3; ++i) {
    int item = i;
    ASSERT_EQ(drained.TryPush("a", item),
              FairQueue<int>::PushVerdict::kAdmitted);
  }
  EXPECT_TRUE(drained.Close(/*drain=*/true).empty());
  int item = 9;
  EXPECT_EQ(drained.TryPush("a", item),
            FairQueue<int>::PushVerdict::kClosed);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(drained.Pop().has_value());
  EXPECT_FALSE(drained.Pop().has_value());

  FairQueue<int> dropped(8);
  for (int i = 0; i < 3; ++i) {
    int one = i;
    int other = i + 10;
    ASSERT_EQ(dropped.TryPush("a", one),
              FairQueue<int>::PushVerdict::kAdmitted);
    ASSERT_EQ(dropped.TryPush("b", other),
              FairQueue<int>::PushVerdict::kAdmitted);
  }
  const std::vector<int> leftovers = dropped.Close(/*drain=*/false);
  EXPECT_EQ(leftovers.size(), 6u);  // nothing silently lost
  EXPECT_FALSE(dropped.Pop().has_value());
  EXPECT_TRUE(dropped.Close(/*drain=*/false).empty());  // idempotent
}

// ---------------------------------------------------------------------------
// Shared CST fixtures

cst::Cst BuildFigureOneCst() {
  const tree::Tree data = testutil::FigureOneTree();
  const auto pst = suffix::PathSuffixTree::Build(data);
  cst::CstOptions copt;
  copt.space_budget_bytes = 1 << 20;  // keep everything
  return cst::Cst::Build(data, pst, copt);
}

/// A larger generated corpus, so concurrent tests exercise real work.
struct Corpus {
  tree::Tree data;
  size_t xml_bytes;
  suffix::PathSuffixTree pst;

  Corpus() {
    data::DblpOptions gen;
    gen.target_bytes = 96 * 1024;
    data = data::GenerateDblp(gen);
    xml_bytes = xml::XmlByteSize(data);
    pst = suffix::PathSuffixTree::Build(data);
  }

  cst::Cst BuildCst(double fraction) const {
    cst::CstOptions copt;
    copt.space_budget_bytes =
        static_cast<size_t>(fraction * static_cast<double>(xml_bytes));
    return cst::Cst::Build(data, pst, copt);
  }
};

const Corpus& SharedCorpus() {
  static const Corpus* corpus = new Corpus();
  return *corpus;
}

query::Twig MustParse(const char* text) {
  Result<query::Twig> twig = query::ParseTwig(text);
  EXPECT_TRUE(twig.ok()) << text;
  return std::move(twig).value();
}

// ---------------------------------------------------------------------------
// SnapshotCatalog

TEST(SnapshotCatalogTest, EmptyUntilFirstPublish) {
  SnapshotCatalog catalog;
  EXPECT_EQ(catalog.Current(), nullptr);
  EXPECT_EQ(catalog.version(), 0u);
  EXPECT_FALSE(catalog.rebuild_in_flight());
  EXPECT_TRUE(catalog.WaitForRebuild().ok());  // no rebuild ever ran
}

TEST(SnapshotCatalogTest, PublishAssignsMonotoneVersionsAndMetadata) {
  SnapshotCatalog catalog;
  EXPECT_EQ(catalog.Publish(BuildFigureOneCst(), "first", 0.25), 1u);
  EXPECT_EQ(catalog.Publish(BuildFigureOneCst(), "second"), 2u);
  std::shared_ptr<const CstSnapshot> current = catalog.Current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version, 2u);
  EXPECT_EQ(current->source, "second");
  EXPECT_EQ(catalog.version(), 2u);
}

TEST(SnapshotCatalogTest, ReadersStayPinnedAcrossPublish) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  std::shared_ptr<const CstSnapshot> pinned = catalog.Current();
  const query::Twig twig = MustParse("book(author, year)");
  const double before =
      core::TwigEstimator(pinned->summary.get())
          .Estimate(twig, core::Algorithm::kMsh);
  catalog.Publish(BuildFigureOneCst(), "v2");
  EXPECT_EQ(catalog.version(), 2u);
  // The pinned snapshot still answers, identically, after the swap.
  EXPECT_EQ(pinned->version, 1u);
  const double after =
      core::TwigEstimator(pinned->summary.get())
          .Estimate(twig, core::Algorithm::kMsh);
  EXPECT_EQ(before, after);
}

TEST(SnapshotCatalogTest, BackgroundRebuildPublishesOnSuccess) {
  SnapshotCatalog catalog;
  ASSERT_TRUE(catalog.BeginRebuild(
      [] { return Result<cst::Cst>(BuildFigureOneCst()); }, "background"));
  EXPECT_TRUE(catalog.WaitForRebuild().ok());
  std::shared_ptr<const CstSnapshot> current = catalog.Current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version, 1u);
  EXPECT_EQ(current->source, "background");
  EXPECT_GE(current->build_seconds, 0.0);
}

TEST(SnapshotCatalogTest, FailedRebuildLeavesCatalogUntouched) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "good");
  ASSERT_TRUE(catalog.BeginRebuild(
      [] { return Result<cst::Cst>(Status::Corruption("bad blob")); },
      "doomed"));
  const Status status = catalog.WaitForRebuild();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(catalog.version(), 1u);
  EXPECT_EQ(catalog.Current()->source, "good");
}

TEST(SnapshotCatalogTest, SecondRebuildRefusedWhileInFlight) {
  SnapshotCatalog catalog;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ASSERT_TRUE(catalog.BeginRebuild(
      [gate] {
        gate.wait();
        return Result<cst::Cst>(BuildFigureOneCst());
      },
      "slow"));
  EXPECT_TRUE(catalog.rebuild_in_flight());
  EXPECT_FALSE(catalog.BeginRebuild(
      [] { return Result<cst::Cst>(BuildFigureOneCst()); }, "refused"));
  release.set_value();
  EXPECT_TRUE(catalog.WaitForRebuild().ok());
  EXPECT_EQ(catalog.Current()->source, "slow");
  // With the first rebuild landed, a new one is accepted again.
  ASSERT_TRUE(catalog.BeginRebuild(
      [] { return Result<cst::Cst>(BuildFigureOneCst()); }, "second"));
  EXPECT_TRUE(catalog.WaitForRebuild().ok());
  EXPECT_EQ(catalog.version(), 2u);
}

TEST(SnapshotCatalogTest, RebuildListenerSeesEachOutcomeBeforeWaitReturns) {
  SnapshotCatalog catalog;
  std::mutex mutex;
  std::vector<StatusCode> seen;
  catalog.SetRebuildListener([&](const Status& status) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.push_back(status.code());
  });
  ASSERT_TRUE(catalog.BeginRebuild(
      [] { return Result<cst::Cst>(BuildFigureOneCst()); }, "good"));
  EXPECT_TRUE(catalog.WaitForRebuild().ok());
  ASSERT_TRUE(catalog.BeginRebuild(
      [] { return Result<cst::Cst>(Status::Corruption("bad blob")); },
      "doomed"));
  EXPECT_FALSE(catalog.WaitForRebuild().ok());
  {
    // WaitForRebuild returning implies the listener already ran.
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], StatusCode::kOk);
    EXPECT_EQ(seen[1], StatusCode::kCorruption);
  }
  // Clearing the listener drains: later rebuilds must not touch it.
  catalog.SetRebuildListener(nullptr);
  ASSERT_TRUE(catalog.BeginRebuild(
      [] { return Result<cst::Cst>(BuildFigureOneCst()); }, "silent"));
  EXPECT_TRUE(catalog.WaitForRebuild().ok());
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(SnapshotCatalogTest, RebuildFailpointFailsTheRebuildKeepsLastGood) {
  util::FailpointRegistry::Get().Reset();
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "good");
  ASSERT_TRUE(
      util::FailpointRegistry::Get().Configure("snapshot/rebuild", "error")
          .ok());
  // The builder itself would succeed; the injected fault wins, and the
  // last good snapshot keeps serving.
  ASSERT_TRUE(catalog.BeginRebuild(
      [] { return Result<cst::Cst>(BuildFigureOneCst()); }, "chaos"));
  const Status status = catalog.WaitForRebuild();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("injected fault"), std::string::npos);
  EXPECT_EQ(catalog.version(), 1u);
  EXPECT_EQ(catalog.Current()->source, "good");
  EXPECT_GE(util::FailpointRegistry::Get().Info("snapshot/rebuild").triggers,
            1u);
  // Disarmed, the same rebuild lands.
  util::FailpointRegistry::Get().Reset();
  ASSERT_TRUE(catalog.BeginRebuild(
      [] { return Result<cst::Cst>(BuildFigureOneCst()); }, "recovered"));
  EXPECT_TRUE(catalog.WaitForRebuild().ok());
  EXPECT_EQ(catalog.version(), 2u);
}

// The concurrent-swap guarantee: readers pinned on version N keep
// producing bit-identical estimates (and never touch freed memory —
// run under ASan via the verify-asan workflow) while version N+1
// publishes and the catalog drops its reference to N.
TEST(SnapshotCatalogTest, ConcurrentSwapKeepsPinnedReadersBitIdentical) {
  const Corpus& corpus = SharedCorpus();
  SnapshotCatalog catalog;
  catalog.Publish(corpus.BuildCst(0.02), "v1");

  const query::Twig twig = MustParse("article(author, year)");
  std::shared_ptr<const CstSnapshot> reference = catalog.Current();
  const double expected =
      core::TwigEstimator(reference->summary.get())
          .Estimate(twig, core::Algorithm::kMsh);

  constexpr size_t kReaders = 4;
  constexpr int kRoundsPerReader = 50;
  std::atomic<bool> mismatch{false};
  std::atomic<size_t> pinned_old{0};
  std::atomic<size_t> ready{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      // Pin v1 before the publish is allowed to proceed, so the
      // "reader holds the old version across the swap" window is
      // guaranteed, not raced for.
      std::shared_ptr<const CstSnapshot> held = catalog.Current();
      ready.fetch_add(1);
      for (int round = 0; round < kRoundsPerReader; ++round) {
        std::shared_ptr<const CstSnapshot> pinned =
            round == 0 ? held : catalog.Current();
        if (pinned->version == 1) {
          pinned_old.fetch_add(1);
          const double got = core::TwigEstimator(pinned->summary.get())
                                 .Estimate(twig, core::Algorithm::kMsh);
          // Bit-identical: the snapshot is immutable, so a pinned
          // reader must reproduce the pre-swap estimate exactly.
          if (got != expected) mismatch.store(true);
        }
        if (round == 0) held.reset();
      }
    });
  }
  // Publish v2 (a different space budget: different CST contents) only
  // once every reader holds a v1 pin, then drop our own v1 pin so the
  // readers' pins are the only thing keeping v1 alive.
  while (ready.load() < kReaders) std::this_thread::yield();
  catalog.Publish(corpus.BuildCst(0.05), "v2");
  reference.reset();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_GT(pinned_old.load(), 0u);  // the race window was real
  EXPECT_EQ(catalog.version(), 2u);
}

// ---------------------------------------------------------------------------
// DatasetCatalog

TEST(DatasetCatalogTest, KeyedLineagesWithDefaultResolution) {
  DatasetCatalog datasets;
  SnapshotCatalog* created = datasets.Create("dblp");
  ASSERT_NE(created, nullptr);
  EXPECT_EQ(datasets.Create("dblp"), created);  // idempotent

  SnapshotCatalog external;
  EXPECT_TRUE(datasets.Register("external", &external));
  EXPECT_FALSE(datasets.Register("external", &external));  // duplicate

  EXPECT_EQ(datasets.Find("dblp"), created);
  EXPECT_EQ(datasets.Find("external"), &external);
  EXPECT_EQ(datasets.Find("missing"), nullptr);
  EXPECT_EQ(datasets.size(), 2u);

  // The empty id resolves to "default".
  EXPECT_EQ(datasets.Find(""), nullptr);
  EXPECT_EQ(datasets.Default(), nullptr);
  SnapshotCatalog* fallback = datasets.Create(kDefaultDataset);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(datasets.Find(""), fallback);
  EXPECT_EQ(datasets.Default(), fallback);

  const std::vector<std::string> ids = datasets.DatasetIds();
  EXPECT_EQ(ids, (std::vector<std::string>{"dblp", "default", "external"}));

  // Lineages are independent: publishing one never moves another.
  created->Publish(BuildFigureOneCst(), "v1");
  EXPECT_EQ(created->version(), 1u);
  EXPECT_EQ(external.version(), 0u);
  EXPECT_EQ(fallback->version(), 0u);
}

// ---------------------------------------------------------------------------
// ResultCache

ResultCache::Key CacheKey(uint64_t version, const char* text,
                          core::Algorithm algorithm = core::Algorithm::kMsh) {
  return ResultCache::MakeKey(version, algorithm,
                              core::CountSemantics::kOccurrence,
                              MustParse(text));
}

CachedEstimate CacheValue(double estimate, uint64_t version) {
  return CachedEstimate{estimate, version, std::chrono::nanoseconds(1000)};
}

TEST(ResultCacheTest, MissThenHitWithExactAccounting) {
  ResultCache cache(ResultCacheOptions{2, 1});
  CachedEstimate out;
  EXPECT_FALSE(cache.Lookup(CacheKey(1, "a.b"), &out));
  cache.Insert(CacheKey(1, "a.b"), CacheValue(41.5, 1));
  ASSERT_TRUE(cache.Lookup(CacheKey(1, "a.b"), &out));
  EXPECT_EQ(out.estimate, 41.5);
  EXPECT_EQ(out.snapshot_version, 1u);
  EXPECT_EQ(out.exec_time, std::chrono::nanoseconds(1000));
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, EvictsTheLeastRecentlyUsedEntry) {
  ResultCache cache(ResultCacheOptions{2, 1});
  cache.Insert(CacheKey(1, "a.b"), CacheValue(1, 1));
  cache.Insert(CacheKey(1, "a.c"), CacheValue(2, 1));
  CachedEstimate out;
  // Touch a.b so a.c becomes the LRU victim.
  ASSERT_TRUE(cache.Lookup(CacheKey(1, "a.b"), &out));
  cache.Insert(CacheKey(1, "a.d"), CacheValue(3, 1));
  EXPECT_FALSE(cache.Lookup(CacheKey(1, "a.c"), &out));
  EXPECT_TRUE(cache.Lookup(CacheKey(1, "a.b"), &out));
  EXPECT_TRUE(cache.Lookup(CacheKey(1, "a.d"), &out));
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCacheTest, InsertRefreshesAnExistingEntryWithoutEvicting) {
  ResultCache cache(ResultCacheOptions{2, 1});
  cache.Insert(CacheKey(1, "a.b"), CacheValue(1, 1));
  cache.Insert(CacheKey(1, "a.c"), CacheValue(2, 1));
  // Re-inserting a.b updates in place (and makes it MRU): no eviction.
  cache.Insert(CacheKey(1, "a.b"), CacheValue(10, 1));
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.Insert(CacheKey(1, "a.d"), CacheValue(3, 1));  // evicts a.c
  CachedEstimate out;
  EXPECT_FALSE(cache.Lookup(CacheKey(1, "a.c"), &out));
  ASSERT_TRUE(cache.Lookup(CacheKey(1, "a.b"), &out));
  EXPECT_EQ(out.estimate, 10);
}

TEST(ResultCacheTest, VersionsAreIsolated) {
  ResultCache cache(ResultCacheOptions{8, 1});
  cache.Insert(CacheKey(1, "a.b"), CacheValue(10, 1));
  cache.Insert(CacheKey(2, "a.b"), CacheValue(20, 2));
  CachedEstimate out;
  ASSERT_TRUE(cache.Lookup(CacheKey(1, "a.b"), &out));
  EXPECT_EQ(out.estimate, 10);
  ASSERT_TRUE(cache.Lookup(CacheKey(2, "a.b"), &out));
  EXPECT_EQ(out.estimate, 20);
  // A version nobody cached under never hits, same query or not.
  EXPECT_FALSE(cache.Lookup(CacheKey(3, "a.b"), &out));
}

TEST(ResultCacheTest, DatasetsPartitionTheKeySpace) {
  // Two datasets run independent version sequences, so "version 1 of
  // query a.b" is ambiguous without the dataset in the key — the same
  // canonical twig must be able to hold a different answer per dataset.
  ResultCache cache(ResultCacheOptions{8, 1});
  const query::Twig twig = MustParse("a.b");
  const ResultCache::Key on_x =
      ResultCache::MakeKey(1, core::Algorithm::kMsh,
                           core::CountSemantics::kOccurrence, twig, "x");
  const ResultCache::Key on_y =
      ResultCache::MakeKey(1, core::Algorithm::kMsh,
                           core::CountSemantics::kOccurrence, twig, "y");
  cache.Insert(on_x, CacheValue(10, 1));
  cache.Insert(on_y, CacheValue(20, 1));
  CachedEstimate out;
  ASSERT_TRUE(cache.Lookup(on_x, &out));
  EXPECT_EQ(out.estimate, 10);
  ASSERT_TRUE(cache.Lookup(on_y, &out));
  EXPECT_EQ(out.estimate, 20);
  // The dataset-less spelling of the same (version, twig) is a third,
  // distinct entry — legacy single-dataset keys never collide with
  // keyed ones.
  EXPECT_FALSE(cache.Lookup(CacheKey(1, "a.b"), &out));
}

TEST(ResultCacheTest, AlgorithmAndSpellingFoldIntoTheKey) {
  ResultCache cache(ResultCacheOptions{8, 1});
  cache.Insert(CacheKey(1, "book(author, year)"), CacheValue(7, 1));
  CachedEstimate out;
  // A different spelling of the same twig is the same key...
  EXPECT_TRUE(
      cache.Lookup(CacheKey(1, "  book ( author , year ) "), &out));
  EXPECT_EQ(out.estimate, 7);
  // ...but a different algorithm is a different question.
  EXPECT_FALSE(cache.Lookup(
      CacheKey(1, "book(author, year)", core::Algorithm::kMo), &out));
}

TEST(ResultCacheTest, FingerprintCollisionDegradesToAMiss) {
  ResultCache cache(ResultCacheOptions{8, 1});
  // Two hand-built keys that collide on (version, fingerprint) but
  // are different queries. The exact text compare must refuse to
  // serve one query's value for the other.
  ResultCache::Key first;
  first.snapshot_version = 1;
  first.fingerprint = 0x1234;
  first.canonical_text = "a.b";
  ResultCache::Key second = first;
  second.canonical_text = "a.c";
  cache.Insert(first, CacheValue(10, 1));
  CachedEstimate out;
  EXPECT_FALSE(cache.Lookup(second, &out));  // collision != hit
  ASSERT_TRUE(cache.Lookup(first, &out));
  EXPECT_EQ(out.estimate, 10);
}

TEST(ResultCacheTest, ShardAndCapacityRounding) {
  // Shards round up to a power of two.
  EXPECT_EQ(ResultCache(ResultCacheOptions{4096, 3}).num_shards(), 4u);
  EXPECT_EQ(ResultCache(ResultCacheOptions{4096, 8}).num_shards(), 8u);
  // Tiny caches shed shards rather than create empty ones.
  const ResultCache tiny(ResultCacheOptions{2, 8});
  EXPECT_LE(tiny.num_shards(), 2u);
  EXPECT_GE(tiny.capacity(), 2u);
  // Zero entries still yields a working one-entry cache.
  ResultCache minimal(ResultCacheOptions{0, 0});
  EXPECT_GE(minimal.capacity(), 1u);
  minimal.Insert(CacheKey(1, "a.b"), CacheValue(1, 1));
  CachedEstimate out;
  EXPECT_TRUE(minimal.Lookup(CacheKey(1, "a.b"), &out));
}

// Run under TSan via the verify-tsan workflow: concurrent lookups,
// inserts, and evictions across versions must stay data-race free and
// never pay out a value that belongs to a different key.
TEST(ResultCacheTest, ConcurrentHammerStaysConsistent) {
  ResultCache cache(ResultCacheOptions{64, 4});
  // A small key space over two "versions" so threads constantly
  // collide on shards and force evictions (64 entries, 100 keys).
  std::vector<ResultCache::Key> keys;
  for (uint64_t version = 1; version <= 2; ++version) {
    for (int q = 0; q < 50; ++q) {
      ResultCache::Key key;
      key.snapshot_version = version;
      key.canonical_text = "q" + std::to_string(q);
      key.fingerprint = core::CanonicalQueryFingerprint(
          key.canonical_text, key.algorithm, key.semantics);
      keys.push_back(std::move(key));
    }
  }
  const auto value_for = [](const ResultCache::Key& key) {
    return static_cast<double>(key.fingerprint ^ key.snapshot_version);
  };

  constexpr size_t kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<size_t> lookups{0};
  std::atomic<bool> corrupted{false};
  std::vector<std::thread> threads;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      std::mt19937 rng(static_cast<unsigned>(tid) * 7919 + 3);
      std::uniform_int_distribution<size_t> pick(0, keys.size() - 1);
      std::uniform_int_distribution<int> coin(0, 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const ResultCache::Key& key = keys[pick(rng)];
        if (coin(rng) == 0) {
          cache.Insert(key, CacheValue(value_for(key),
                                       key.snapshot_version));
        } else {
          lookups.fetch_add(1, std::memory_order_relaxed);
          CachedEstimate out;
          if (cache.Lookup(key, &out) &&
              (out.estimate != value_for(key) ||
               out.snapshot_version != key.snapshot_version)) {
            corrupted.store(true);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(corrupted.load());
  const ResultCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, cache.capacity());
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);  // 100 keys through 64 entries
}

// ---------------------------------------------------------------------------
// HealthMonitor

TEST(HealthMonitorTest, StartsOkAndSparseOutcomesDoNotTrip) {
  HealthMonitor health;
  EXPECT_EQ(health.Report().state, HealthState::kOk);
  // Fewer than min_window outcomes: the rate is not judged yet, even
  // if every one of them missed its deadline.
  for (int i = 0; i < 8; ++i) health.ObserveOutcome(/*deadline_miss=*/true);
  EXPECT_EQ(health.Assess(/*queue_depth=*/0, /*queue_capacity=*/100),
            HealthState::kOk);
}

TEST(HealthMonitorTest, QueuePressureEntersBrownoutAndDrainRecovers) {
  HealthOptions options;
  options.quiet_period = milliseconds(1);
  HealthMonitor health(options);
  EXPECT_EQ(health.Assess(95, 100), HealthState::kBrownout);
  const HealthReport report = health.Report();
  EXPECT_EQ(report.state, HealthState::kBrownout);
  EXPECT_NE(report.reason.find("queue"), std::string::npos);
  EXPECT_GT(report.retry_after.count(), 0);
  // Still deep: no exit, even though no deadline ever missed.
  EXPECT_EQ(health.Assess(80, 100), HealthState::kBrownout);
  // Shallow queue + a quiet period (no outcomes at all since entry).
  std::this_thread::sleep_for(milliseconds(5));
  EXPECT_EQ(health.Assess(10, 100), HealthState::kOk);
  EXPECT_EQ(health.Report().state, HealthState::kOk);
}

TEST(HealthMonitorTest, DeadlineMissRateEntersBrownoutAndCleanTrafficExits) {
  HealthMonitor health;  // min_window 16, enter at 50%, exit at 10%
  for (int i = 0; i < 16; ++i) health.ObserveOutcome(/*deadline_miss=*/true);
  EXPECT_EQ(health.Assess(0, 100), HealthState::kBrownout);
  EXPECT_NE(health.Report().reason.find("deadline-miss"), std::string::npos);
  // Entry reset the window: recovery judges post-entry traffic only.
  for (int i = 0; i < 16; ++i) health.ObserveOutcome(/*deadline_miss=*/false);
  EXPECT_EQ(health.Assess(0, 100), HealthState::kOk);
}

TEST(HealthMonitorTest, DegradedIsStickyAndOutrankedByBrownout) {
  HealthOptions options;
  options.quiet_period = milliseconds(1);
  HealthMonitor health(options);
  health.SetDegraded("rebuild failed: disk ate it");
  EXPECT_EQ(health.Assess(0, 100), HealthState::kDegraded);
  EXPECT_EQ(health.Report().reason, "rebuild failed: disk ate it");
  // Brown-out outranks the sticky degraded state while it lasts...
  EXPECT_EQ(health.Assess(100, 100), HealthState::kBrownout);
  std::this_thread::sleep_for(milliseconds(5));
  // ...and degraded resurfaces after the brown-out clears.
  EXPECT_EQ(health.Assess(0, 100), HealthState::kDegraded);
  health.ClearDegraded();
  EXPECT_EQ(health.Assess(0, 100), HealthState::kOk);
}

// ---------------------------------------------------------------------------
// RetryPolicy

TEST(RetryPolicyTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Unavailable("overloaded")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::InvalidArgument("bad")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Corruption("torn")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::DeadlineExceeded("late")));
  RetryPolicy policy;
  EXPECT_FALSE(
      policy.NextBackoff(Status::InvalidArgument("bad"), 1).has_value());
}

TEST(RetryPolicyTest, BackoffStaysWithinBaseAndCap) {
  RetryOptions options;
  options.max_attempts = 64;
  options.base_backoff = milliseconds(2);
  options.max_backoff = milliseconds(50);
  options.budget_cap = 1000;
  RetryPolicy policy(options);
  for (int attempt = 1; attempt < 64; ++attempt) {
    const std::optional<milliseconds> backoff =
        policy.NextBackoff(Status::Unavailable("x"), attempt);
    ASSERT_TRUE(backoff.has_value()) << attempt;
    EXPECT_GE(backoff->count(), 2) << attempt;
    EXPECT_LE(backoff->count(), 50) << attempt;
  }
  // Attempt == max_attempts: the budget for this request is spent.
  EXPECT_FALSE(
      policy.NextBackoff(Status::Unavailable("x"), 64).has_value());
}

TEST(RetryPolicyTest, DeadlineVetoesARetryThatWouldLandLate) {
  RetryOptions options;
  options.base_backoff = milliseconds(10);
  RetryPolicy policy(options);
  // A deadline already behind us: no retry, whatever the budget says.
  EXPECT_FALSE(policy
                   .NextBackoff(Status::Unavailable("x"), 1,
                                Clock::now() - milliseconds(1))
                   .has_value());
  // A generous deadline grants as usual.
  EXPECT_TRUE(policy
                  .NextBackoff(Status::Unavailable("x"), 1,
                               Clock::now() + std::chrono::seconds(10))
                  .has_value());
}

TEST(RetryPolicyTest, ServerHintFloorsTheDrawnBackoff) {
  RetryOptions options;
  options.base_backoff = milliseconds(1);
  options.max_backoff = milliseconds(250);
  RetryPolicy policy(options);
  const std::optional<milliseconds> backoff = policy.NextBackoff(
      Status::Unavailable("browning out"), 1,
      Clock::time_point::max(), /*server_hint=*/milliseconds(40));
  ASSERT_TRUE(backoff.has_value());
  EXPECT_GE(backoff->count(), 40);
}

TEST(RetryPolicyTest, TokenBudgetBoundsRetryAmplification) {
  RetryOptions options;
  options.max_attempts = 100;
  options.budget_cap = 2.0;
  options.budget_ratio = 1.0;
  RetryPolicy policy(options);
  // Two tokens: two retries, then sustained failure is cut off.
  EXPECT_TRUE(policy.NextBackoff(Status::Unavailable("x"), 1).has_value());
  EXPECT_TRUE(policy.NextBackoff(Status::Unavailable("x"), 2).has_value());
  EXPECT_FALSE(policy.NextBackoff(Status::Unavailable("x"), 3).has_value());
  // A success earns budget back; first attempts were never blocked.
  policy.RecordSuccess();
  EXPECT_TRUE(policy.NextBackoff(Status::Unavailable("x"), 1).has_value());
}

TEST(RetryPolicyTest, RetryLoopRetriesTransientFailuresUntilSuccess) {
  RetryOptions options;
  options.base_backoff = milliseconds(1);
  options.max_backoff = milliseconds(1);
  RetryPolicy policy(options);
  int attempts = 0;
  const int retries = RetryLoop(&policy, Clock::time_point::max(), [&] {
    ++attempts;
    return AttemptResult{attempts < 3 ? Status::Unavailable("x")
                                      : Status::OK()};
  });
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(retries, 2);
  // Two retries spent two tokens; the success earned budget_ratio back.
  EXPECT_DOUBLE_EQ(policy.budget(),
                   options.budget_cap - 2 + options.budget_ratio);
}

TEST(RetryPolicyTest, RetryLoopStopsWhenThePolicyGrantsNoRetry) {
  RetryOptions options;
  options.max_attempts = 3;
  options.base_backoff = milliseconds(1);
  options.max_backoff = milliseconds(1);
  RetryPolicy policy(options);
  int attempts = 0;
  const auto failing = [&attempts](Status status) {
    return [&attempts, status] {
      ++attempts;
      return AttemptResult{status};
    };
  };
  // A definitive error is answered once.
  EXPECT_EQ(RetryLoop(&policy, Clock::time_point::max(),
                      failing(Status::InvalidArgument("bad"))),
            0);
  EXPECT_EQ(attempts, 1);
  // No policy: exactly one attempt, even for a transient failure.
  EXPECT_EQ(RetryLoop(nullptr, Clock::time_point::max(),
                      failing(Status::Unavailable("x"))),
            0);
  EXPECT_EQ(attempts, 2);
  // Sustained transient failure stops at max_attempts.
  EXPECT_EQ(RetryLoop(&policy, Clock::time_point::max(),
                      failing(Status::Unavailable("x"))),
            2);
  EXPECT_EQ(attempts, 5);
}

// ---------------------------------------------------------------------------
// EstimateService

EstimateRequest MakeRequest(const char* text,
                            core::Algorithm algorithm = core::Algorithm::kMsh) {
  EstimateRequest request;
  request.twig = MustParse(text);
  request.algorithm = algorithm;
  return request;
}

TEST(EstimateServiceTest, ServedEstimatesMatchDirectEstimatorCalls) {
  const Corpus& corpus = SharedCorpus();
  SnapshotCatalog catalog;
  catalog.Publish(corpus.BuildCst(0.02), "v1");
  ServiceOptions options;
  options.num_workers = 2;
  EstimateService service(&catalog, options);

  const std::shared_ptr<const CstSnapshot> snapshot = catalog.Current();
  const core::TwigEstimator direct(snapshot->summary.get());
  for (const char* text : {"article(author, year)", "article.title",
                           "inproceedings(author, pages)", "book.publisher"}) {
    for (core::Algorithm algorithm :
         {core::Algorithm::kMsh, core::Algorithm::kMo,
          core::Algorithm::kGreedy}) {
      EstimateResponse response =
          service.SubmitAndWait(MakeRequest(text, algorithm));
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.estimate,
                direct.Estimate(MustParse(text), algorithm))
          << text << " via " << core::AlgorithmName(algorithm);
      EXPECT_EQ(response.snapshot_version, 1u);
      EXPECT_GE(response.queue_wait.count(), 0);
      EXPECT_GT(response.exec_time.count(), 0);
    }
  }
}

TEST(EstimateServiceTest, NoSnapshotYieldsUnavailable) {
  SnapshotCatalog catalog;
  EstimateService service(&catalog);
  EstimateResponse response =
      service.SubmitAndWait(MakeRequest("article.author"));
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
}

/// Holds the first dequeued request until released, so tests can fill
/// the queue deterministically behind it.
class WorkerGate {
 public:
  /// Starts armed by default; pass false to let requests flow until
  /// Arm() (e.g. to warm a cache first).
  explicit WorkerGate(bool armed = true) : armed_(armed) {}

  void Arm() {
    std::unique_lock<std::mutex> lock(mutex_);
    armed_ = true;
    held_ = false;
  }

  ServiceOptions Options(size_t queue_capacity) {
    ServiceOptions options;
    options.num_workers = 1;
    options.queue_capacity = queue_capacity;
    options.dequeue_hook = [this] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (armed_) {
        held_ = true;
        held_cv_.notify_all();
        release_cv_.wait(lock, [&] { return !armed_; });
      }
    };
    return options;
  }

  /// Blocks until a worker is parked inside the hook.
  void AwaitHeld() {
    std::unique_lock<std::mutex> lock(mutex_);
    held_cv_.wait(lock, [&] { return held_; });
  }

  void Release() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      armed_ = false;
    }
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable held_cv_;
  std::condition_variable release_cv_;
  bool armed_;
  bool held_ = false;
};

TEST(EstimateServiceTest, FullQueueRejectsWithStructuredOverload) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  WorkerGate gate;
  ServiceOptions options = gate.Options(/*queue_capacity=*/1);
  // Disable queue-depth brown-out so this exercises the TryPush path
  // itself (with brown-out on, a 1/1 queue is shed before the push —
  // see BrownoutShedsUncachedWorkButServesCacheHits).
  options.health.brownout_queue_fraction = 2.0;
  EstimateService service(&catalog, options);

  // First request parks the only worker; second fills the queue; the
  // third must be rejected immediately with a structured overload.
  std::future<EstimateResponse> in_flight =
      service.Submit(MakeRequest("book.author"));
  gate.AwaitHeld();
  std::future<EstimateResponse> queued =
      service.Submit(MakeRequest("book.author"));
  EstimateResponse overloaded =
      service.SubmitAndWait(MakeRequest("book.author"));
  EXPECT_EQ(overloaded.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(overloaded.status.message().find("overloaded"),
            std::string::npos);

  gate.Release();
  EXPECT_TRUE(in_flight.get().status.ok());
  EXPECT_TRUE(queued.get().status.ok());
}

TEST(EstimateServiceTest, ExpiredDeadlineIsAMissNotAnEstimate) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  EstimateService service(&catalog);
  EstimateRequest request = MakeRequest("book.author");
  request.deadline = Clock::now() - milliseconds(1);
  EstimateResponse response = service.SubmitAndWait(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);

  // The default deadline applies to requests that carry none.
  ServiceOptions options;
  options.num_workers = 1;
  options.default_deadline = milliseconds(1);
  options.dequeue_hook = [] {
    std::this_thread::sleep_for(milliseconds(50));
  };
  EstimateService slow(&catalog, options);
  response = slow.SubmitAndWait(MakeRequest("book.author"));
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(EstimateServiceTest, ShutdownWithDrainAnswersEverythingAdmitted) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  WorkerGate gate;
  EstimateService service(&catalog, gate.Options(/*queue_capacity=*/8));

  std::future<EstimateResponse> first =
      service.Submit(MakeRequest("book.author"));
  gate.AwaitHeld();
  std::vector<std::future<EstimateResponse>> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(service.Submit(MakeRequest("book.author")));
  }
  std::thread closer([&] { service.Shutdown(/*drain=*/true); });
  gate.Release();
  closer.join();
  EXPECT_TRUE(first.get().status.ok());
  for (auto& f : queued) EXPECT_TRUE(f.get().status.ok());
  // After shutdown, new submissions reject without blocking.
  EstimateResponse late = service.SubmitAndWait(MakeRequest("book.author"));
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
}

TEST(EstimateServiceTest, ShutdownWithoutDrainRejectsTheQueuedRemainder) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  WorkerGate gate;
  EstimateService service(&catalog, gate.Options(/*queue_capacity=*/8));

  std::future<EstimateResponse> first =
      service.Submit(MakeRequest("book.author"));
  gate.AwaitHeld();
  std::vector<std::future<EstimateResponse>> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(service.Submit(MakeRequest("book.author")));
  }
  std::thread closer([&] { service.Shutdown(/*drain=*/false); });
  // Shutdown(drop) empties the queue into rejections while the worker
  // is still parked; release the gate only once that has happened, so
  // no queued request can sneak through and get served.
  while (service.queue_depth() != 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  gate.Release();
  closer.join();
  // The in-flight request completes; the queued remainder is rejected —
  // but every admitted future resolves either way.
  EXPECT_TRUE(first.get().status.ok());
  for (auto& f : queued) {
    EstimateResponse response = f.get();
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  }
}

TEST(EstimateServiceTest, StagesFeedTheMetricsRegistry) {
  auto& registry = obs::MetricsRegistry::Get();
  const obs::MetricsSnapshot before = registry.Snapshot();

  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  EstimateService service(&catalog);
  ASSERT_TRUE(
      service.SubmitAndWait(MakeRequest("book(author, year)")).status.ok());
  EstimateRequest expired = MakeRequest("book.author");
  expired.deadline = Clock::now() - milliseconds(1);
  service.SubmitAndWait(std::move(expired));
  service.Shutdown(/*drain=*/true);
  service.SubmitAndWait(MakeRequest("book.author"));  // rejected

  const obs::MetricsSnapshot delta = registry.Snapshot().Delta(before);
  const auto count = [&](obs::Counter c) {
    return delta.counters[static_cast<size_t>(c)];
  };
  EXPECT_GE(count(obs::Counter::kSnapshotPublishes), 1u);
  EXPECT_GE(count(obs::Counter::kServeEnqueued), 2u);
  EXPECT_GE(count(obs::Counter::kServeServed), 1u);
  EXPECT_GE(count(obs::Counter::kServeDeadlineMisses), 1u);
  EXPECT_GE(count(obs::Counter::kServeRejected), 1u);
  EXPECT_GE(delta.latency[obs::kServeWaitSeries].count, 2u);
}

TEST(EstimateServiceTest, CacheIsOffUnlessConfigured) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  EstimateService service(&catalog);
  EXPECT_EQ(service.result_cache(), nullptr);
  EstimateResponse response = service.SubmitAndWait(MakeRequest("book.author"));
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.cached);
  response = service.SubmitAndWait(MakeRequest("book.author"));
  EXPECT_FALSE(response.cached);  // same query, still computed
}

TEST(EstimateServiceTest, CacheHitIsBitIdenticalAndBypassesAFullQueue) {
  const Corpus& corpus = SharedCorpus();
  SnapshotCatalog catalog;
  catalog.Publish(corpus.BuildCst(0.02), "v1");
  WorkerGate gate(/*armed=*/false);
  ServiceOptions options = gate.Options(/*queue_capacity=*/1);
  options.cache_entries = 64;
  EstimateService service(&catalog, options);
  ASSERT_NE(service.result_cache(), nullptr);

  // Warm the cache while the gate lets requests flow.
  const double expected =
      core::TwigEstimator(catalog.Current()->summary.get())
          .Estimate(MustParse("article(author, year)"), core::Algorithm::kMsh);
  EstimateResponse first =
      service.SubmitAndWait(MakeRequest("article(author, year)"));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cached);
  EXPECT_EQ(first.estimate, expected);

  // Park the only worker and fill the one-slot queue with misses.
  gate.Arm();
  std::future<EstimateResponse> parked =
      service.Submit(MakeRequest("article.title"));
  gate.AwaitHeld();
  std::future<EstimateResponse> queued =
      service.Submit(MakeRequest("inproceedings(author, pages)"));
  EstimateResponse overloaded =
      service.SubmitAndWait(MakeRequest("book.publisher"));
  EXPECT_EQ(overloaded.status.code(), StatusCode::kUnavailable);

  // The cached query sails past the saturated queue: answered
  // immediately, bit-identical, flagged, echoing the original compute
  // cost.
  EstimateResponse hit =
      service.SubmitAndWait(MakeRequest("article(author, year)"));
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.estimate, expected);
  EXPECT_EQ(hit.snapshot_version, 1u);
  EXPECT_EQ(hit.exec_time, first.exec_time);

  gate.Release();
  EXPECT_TRUE(parked.get().status.ok());
  EXPECT_TRUE(queued.get().status.ok());
  EXPECT_GE(service.result_cache()->stats().hits, 1u);
}

TEST(EstimateServiceTest, CacheEntriesAreVersionIsolatedAcrossAHotSwap) {
  const Corpus& corpus = SharedCorpus();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Get().Snapshot();
  SnapshotCatalog catalog;
  catalog.Publish(corpus.BuildCst(0.02), "v1");
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_entries = 64;
  EstimateService service(&catalog, options);

  EstimateRequest request = MakeRequest("article(author, year)");
  EstimateResponse computed_v1 = service.SubmitAndWait(request);
  ASSERT_TRUE(computed_v1.status.ok());
  EXPECT_FALSE(computed_v1.cached);
  EstimateResponse hit_v1 = service.SubmitAndWait(request);
  ASSERT_TRUE(hit_v1.status.ok());
  EXPECT_TRUE(hit_v1.cached);
  EXPECT_EQ(hit_v1.estimate, computed_v1.estimate);
  EXPECT_EQ(hit_v1.snapshot_version, 1u);

  // Hot swap to a different CST. The v1 entry must not answer for v2.
  catalog.Publish(corpus.BuildCst(0.05), "v2");
  const double expected_v2 =
      core::TwigEstimator(catalog.Current()->summary.get())
          .Estimate(MustParse("article(author, year)"), core::Algorithm::kMsh);
  EstimateResponse computed_v2 = service.SubmitAndWait(request);
  ASSERT_TRUE(computed_v2.status.ok());
  EXPECT_FALSE(computed_v2.cached);  // fresh version, fresh compute
  EXPECT_EQ(computed_v2.snapshot_version, 2u);
  EXPECT_EQ(computed_v2.estimate, expected_v2);
  EstimateResponse hit_v2 = service.SubmitAndWait(request);
  ASSERT_TRUE(hit_v2.status.ok());
  EXPECT_TRUE(hit_v2.cached);
  EXPECT_EQ(hit_v2.snapshot_version, 2u);
  EXPECT_EQ(hit_v2.estimate, expected_v2);

  service.Shutdown(/*drain=*/true);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Get().Snapshot().Delta(before);
  const auto count = [&](obs::Counter c) {
    return delta.counters[static_cast<size_t>(c)];
  };
  EXPECT_GE(count(obs::Counter::kServeCacheHits), 2u);
  EXPECT_GE(count(obs::Counter::kServeCacheMisses), 2u);
  EXPECT_GE(delta.latency[obs::kServeCacheHitSeries].count, 2u);
}

/// A second, smaller generated corpus so multi-dataset tests have two
/// datasets whose answers genuinely differ for the same query.
const Corpus& AltCorpus() {
  static const Corpus* corpus = [] {
    auto* alt = new Corpus();
    data::DblpOptions gen;
    gen.target_bytes = 24 * 1024;
    gen.seed = 7;
    alt->data = data::GenerateDblp(gen);
    alt->xml_bytes = xml::XmlByteSize(alt->data);
    alt->pst = suffix::PathSuffixTree::Build(alt->data);
    return alt;
  }();
  return *corpus;
}

TEST(EstimateServiceTest, CacheNeverConflatesDatasets) {
  // The conflation bug this pins down: two datasets serve the same
  // canonical twig at the same snapshot version; without the dataset
  // in the cache key, whichever dataset answers first poisons the
  // other with its result.
  DatasetCatalog datasets;
  SnapshotCatalog* big = datasets.Create("big");
  SnapshotCatalog* alt = datasets.Create("alt");
  big->Publish(SharedCorpus().BuildCst(0.02), "big-v1");
  alt->Publish(AltCorpus().BuildCst(0.02), "alt-v1");
  ASSERT_EQ(big->version(), alt->version());  // identical but for dataset

  ServiceOptions options;
  options.num_workers = 1;
  options.cache_entries = 64;
  EstimateService service(&datasets, options);

  const char* kQuery = "article(author, year)";
  const double expected_big =
      core::TwigEstimator(big->Current()->summary.get())
          .Estimate(MustParse(kQuery), core::Algorithm::kMsh);
  const double expected_alt =
      core::TwigEstimator(alt->Current()->summary.get())
          .Estimate(MustParse(kQuery), core::Algorithm::kMsh);
  ASSERT_NE(expected_big, expected_alt);  // the corpora really differ

  EstimateRequest on_big = MakeRequest(kQuery);
  on_big.dataset = "big";
  EstimateRequest on_alt = MakeRequest(kQuery);
  on_alt.dataset = "alt";

  // Warm big's entry, then ask alt: it must compute its own answer,
  // not hit big's.
  EXPECT_FALSE(service.SubmitAndWait(on_big).cached);
  EstimateResponse alt_first = service.SubmitAndWait(on_alt);
  ASSERT_TRUE(alt_first.status.ok());
  EXPECT_FALSE(alt_first.cached);
  EXPECT_EQ(alt_first.estimate, expected_alt);

  // Both now hit, each with its own dataset's answer.
  EstimateResponse big_hit = service.SubmitAndWait(on_big);
  EXPECT_TRUE(big_hit.cached);
  EXPECT_EQ(big_hit.estimate, expected_big);
  EstimateResponse alt_hit = service.SubmitAndWait(on_alt);
  EXPECT_TRUE(alt_hit.cached);
  EXPECT_EQ(alt_hit.estimate, expected_alt);

  // Swapping one dataset invalidates only its own entries: big moves
  // to v2 and recomputes, alt keeps hitting its v1 entry.
  big->Publish(SharedCorpus().BuildCst(0.05), "big-v2");
  EstimateResponse big_v2 = service.SubmitAndWait(on_big);
  ASSERT_TRUE(big_v2.status.ok());
  EXPECT_FALSE(big_v2.cached);
  EXPECT_EQ(big_v2.snapshot_version, 2u);
  EstimateResponse alt_after = service.SubmitAndWait(on_alt);
  EXPECT_TRUE(alt_after.cached);
  EXPECT_EQ(alt_after.estimate, expected_alt);
  EXPECT_EQ(alt_after.snapshot_version, 1u);

  // An unregistered dataset is a structured admission error.
  EstimateRequest unknown = MakeRequest(kQuery);
  unknown.dataset = "nope";
  EXPECT_EQ(service.SubmitAndWait(unknown).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(EstimateServiceTest, TenantQuotaThrottlesWithStructuredError) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  ServiceOptions options;
  options.num_workers = 1;
  options.tenants.overrides["metered"].rate = 0.001;  // ~one per 17 min
  options.tenants.overrides["metered"].burst = 2;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Get().Snapshot();
  EstimateService service(&catalog, options);

  EstimateRequest request = MakeRequest("article.author");
  request.tenant = "metered";
  EXPECT_TRUE(service.SubmitAndWait(request).status.ok());
  EXPECT_TRUE(service.SubmitAndWait(request).status.ok());
  EstimateResponse throttled = service.SubmitAndWait(request);
  EXPECT_EQ(throttled.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(throttled.status.message().find("throttled"), std::string::npos);
  EXPECT_GE(throttled.retry_after.count(), 1);  // when the token lands

  // Another tenant is untouched by the metered tenant's bucket.
  EstimateRequest other = MakeRequest("article.author");
  other.tenant = "free";
  EXPECT_TRUE(service.SubmitAndWait(other).status.ok());

  const std::vector<TenantStats> stats = service.tenant_stats();
  uint64_t metered_throttled = 0;
  for (const TenantStats& tenant : stats) {
    if (tenant.tenant == "metered") metered_throttled = tenant.throttled;
  }
  EXPECT_GE(metered_throttled, 1u);

  service.Shutdown(/*drain=*/true);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Get().Snapshot().Delta(before);
  EXPECT_GE(delta.counters[static_cast<size_t>(
                obs::Counter::kServeTenantAdmitted)],
            3u);
  EXPECT_GE(delta.counters[static_cast<size_t>(
                obs::Counter::kServeTenantThrottled)],
            1u);
}

// ---------------------------------------------------------------------------
// Spans, the flight recorder, and the accuracy sampler in the service

TEST(EstimateServiceTest, TracingIsOffWhenRecorderEntriesIsZero) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  ServiceOptions options;
  options.recorder_entries = 0;
  EstimateService service(&catalog, options);
  EXPECT_EQ(service.recorder(), nullptr);
  EXPECT_TRUE(service.SubmitAndWait(MakeRequest("book.author")).status.ok());
}

TEST(EstimateServiceTest, SpansRecordEveryOutcome) {
  const Corpus& corpus = SharedCorpus();
  SnapshotCatalog catalog;
  catalog.Publish(corpus.BuildCst(0.02), "v1");
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_entries = 16;
  EstimateService service(&catalog, options);
  ASSERT_NE(service.recorder(), nullptr);

  ASSERT_TRUE(
      service.SubmitAndWait(MakeRequest("article.author")).status.ok());
  EstimateResponse hit = service.SubmitAndWait(MakeRequest("article.author"));
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cached);
  EstimateRequest expired = MakeRequest("book.author");
  expired.deadline = Clock::now() - milliseconds(1);
  service.SubmitAndWait(std::move(expired));
  service.Shutdown(/*drain=*/true);
  service.SubmitAndWait(MakeRequest("book.author"));  // rejected at admission

  const std::vector<obs::SpanRecord> spans =
      service.recorder()->RecentSpans();
  ASSERT_EQ(spans.size(), 4u);
  const auto with = [&](obs::SpanOutcome outcome) {
    const obs::SpanRecord* found = nullptr;
    for (const obs::SpanRecord& span : spans) {
      if (span.outcome == outcome) found = &span;
    }
    return found;
  };
  const auto offset = [](const obs::SpanRecord& span, obs::SpanStage stage) {
    return span.offset_ns[static_cast<size_t>(stage)];
  };

  // The served span walked the full pipeline, in order.
  const obs::SpanRecord* served = with(obs::SpanOutcome::kServed);
  ASSERT_NE(served, nullptr);
  for (size_t stage = 0; stage < obs::kSpanStageCount; ++stage) {
    ASSERT_NE(served->offset_ns[stage], obs::kSpanStageUnset)
        << obs::SpanStageName(static_cast<obs::SpanStage>(stage));
  }
  EXPECT_LE(offset(*served, obs::SpanStage::kEnqueued),
            offset(*served, obs::SpanStage::kDequeued));
  EXPECT_LE(offset(*served, obs::SpanStage::kEstimated),
            offset(*served, obs::SpanStage::kReplied));
  EXPECT_EQ(served->snapshot_version, 1u);
  EXPECT_EQ(served->query, query::FormatTwig(MustParse("article.author")));
  EXPECT_EQ(served->total_ns(), offset(*served, obs::SpanStage::kReplied));

  // A cache hit replies straight after the lookup: never enqueued.
  const obs::SpanRecord* cache_hit = with(obs::SpanOutcome::kCacheHit);
  ASSERT_NE(cache_hit, nullptr);
  EXPECT_NE(offset(*cache_hit, obs::SpanStage::kCacheLookup),
            obs::kSpanStageUnset);
  EXPECT_EQ(offset(*cache_hit, obs::SpanStage::kEnqueued),
            obs::kSpanStageUnset);
  EXPECT_EQ(cache_hit->estimate, served->estimate);

  // The expired request was dequeued, then replied without estimating.
  const obs::SpanRecord* missed = with(obs::SpanOutcome::kDeadlineMiss);
  ASSERT_NE(missed, nullptr);
  EXPECT_NE(offset(*missed, obs::SpanStage::kDequeued), obs::kSpanStageUnset);
  EXPECT_EQ(offset(*missed, obs::SpanStage::kEstimated), obs::kSpanStageUnset);

  // Refused at admission after shutdown: no queue stages at all.
  const obs::SpanRecord* rejected = with(obs::SpanOutcome::kRejected);
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(offset(*rejected, obs::SpanStage::kEnqueued), obs::kSpanStageUnset);
  EXPECT_NE(offset(*rejected, obs::SpanStage::kReplied), obs::kSpanStageUnset);
}

TEST(EstimateServiceTest, ShutdownFlushesInFlightSpansExactlyOnce) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  WorkerGate gate;
  EstimateService service(&catalog, gate.Options(/*queue_capacity=*/8));
  ASSERT_NE(service.recorder(), nullptr);

  // One request parked in the worker, three queued behind it; a
  // drop-mode shutdown flushes the queued remainder into rejections
  // while the first completes normally.
  std::future<EstimateResponse> first =
      service.Submit(MakeRequest("book.author"));
  gate.AwaitHeld();
  std::vector<std::future<EstimateResponse>> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(service.Submit(MakeRequest("book.author")));
  }
  std::thread closer([&] { service.Shutdown(/*drain=*/false); });
  while (service.queue_depth() != 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  gate.Release();
  closer.join();
  EXPECT_TRUE(first.get().status.ok());
  for (auto& f : queued) f.get();

  // Every admitted request left exactly one span — the flushed ones as
  // rejections, the in-flight one as served — with distinct ids.
  const std::vector<obs::SpanRecord> spans =
      service.recorder()->RecentSpans();
  ASSERT_EQ(spans.size(), 4u);
  std::set<uint64_t> ids;
  size_t served = 0, rejected = 0;
  for (const obs::SpanRecord& span : spans) {
    EXPECT_TRUE(ids.insert(span.request_id).second)
        << "request " << span.request_id << " recorded twice";
    served += span.outcome == obs::SpanOutcome::kServed;
    rejected += span.outcome == obs::SpanOutcome::kRejected;
  }
  EXPECT_EQ(served, 1u);
  EXPECT_EQ(rejected, 3u);
  EXPECT_EQ(service.recorder()->stats().dropped, 0u);
}

TEST(EstimateServiceTest, AccuracySamplerIsExactOnAnUnprunedCst) {
  const Corpus& corpus = SharedCorpus();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Get().Snapshot();
  cst::CstOptions copt;
  copt.prune_threshold = 1;  // unpruned: estimates are sharp (tier-1
                             // exactness, see differential_test.cc)
  SnapshotCatalog catalog;
  // The corpus outlives every test; a non-owning alias is safe.
  catalog.Publish(
      cst::Cst::Build(corpus.data, corpus.pst, copt), "v1",
      /*build_seconds=*/0,
      std::shared_ptr<const tree::Tree>(std::shared_ptr<const tree::Tree>(),
                                        &corpus.data));
  ServiceOptions options;
  options.num_workers = 1;
  options.accuracy_sample_every = 1;  // re-execute every request
  EstimateService service(&catalog, options);

  const char* queries[] = {"dblp//author", "dblp//title", "article//title",
                           "dblp.*"};
  for (const char* text : queries) {
    ASSERT_TRUE(service.SubmitAndWait(MakeRequest(text)).status.ok()) << text;
  }
  service.Shutdown(/*drain=*/true);

  const std::vector<obs::SpanRecord> spans =
      service.recorder()->RecentSpans();
  ASSERT_EQ(spans.size(), std::size(queries));
  for (const obs::SpanRecord& span : spans) {
    EXPECT_TRUE(span.accuracy_sampled) << span.query;
    EXPECT_NEAR(span.relative_error, 0.0, 1e-9) << span.query;
  }
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Get().Snapshot();
  const obs::MetricsSnapshot delta = after.Delta(before);
  EXPECT_GE(delta.counters[static_cast<size_t>(
                obs::Counter::kServeAccuracySamples)],
            std::size(queries));
  EXPECT_NEAR(after.accuracy.MeanAbs(), 0.0, 1e-9);
}

TEST(EstimateServiceTest, AccuracySamplerSkipsSnapshotsWithoutATree) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");  // no data tree attached
  ServiceOptions options;
  options.accuracy_sample_every = 1;
  EstimateService service(&catalog, options);
  ASSERT_TRUE(service.SubmitAndWait(MakeRequest("book.author")).status.ok());
  service.Shutdown(/*drain=*/true);
  for (const obs::SpanRecord& span : service.recorder()->RecentSpans()) {
    EXPECT_FALSE(span.accuracy_sampled);
  }
}

TEST(EstimateServiceTest, FailedRebuildFlipsHealthDegradedUntilOneLands) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  EstimateService service(&catalog);
  EXPECT_EQ(service.health().Report().state, HealthState::kOk);

  ASSERT_TRUE(catalog.BeginRebuild(
      [] { return Result<cst::Cst>(Status::Corruption("bad blob")); },
      "doomed"));
  EXPECT_FALSE(catalog.WaitForRebuild().ok());
  HealthReport report = service.health().Report();
  EXPECT_EQ(report.state, HealthState::kDegraded);
  EXPECT_NE(report.reason.find("rebuild failed"), std::string::npos);
  // Degraded, not down: the last good snapshot still answers.
  EstimateResponse response =
      service.SubmitAndWait(MakeRequest("book.author"));
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.snapshot_version, 1u);

  ASSERT_TRUE(catalog.BeginRebuild(
      [] { return Result<cst::Cst>(BuildFigureOneCst()); }, "fixed"));
  EXPECT_TRUE(catalog.WaitForRebuild().ok());
  EXPECT_EQ(service.health().Report().state, HealthState::kOk);
}

TEST(EstimateServiceTest, ShutdownDuringRebuildDetachesTheListenerSafely) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  {
    EstimateService service(&catalog);
    ASSERT_TRUE(catalog.BeginRebuild(
        [gate] {
          gate.wait();
          return Result<cst::Cst>(BuildFigureOneCst());
        },
        "slow"));
    // Shutdown while the rebuild is parked: the listener must detach
    // before the service goes away (run under TSan via verify-tsan).
    std::thread unblock([&] {
      std::this_thread::sleep_for(milliseconds(20));
      release.set_value();
    });
    service.Shutdown(/*drain=*/true);
    unblock.join();
  }
  // The rebuild still lands after the service is gone — into the
  // catalog, with no listener left to call.
  EXPECT_TRUE(catalog.WaitForRebuild().ok());
  EXPECT_EQ(catalog.version(), 2u);
}

TEST(EstimateServiceTest, AdmissionAndEstimateFailpointsRejectStructurally) {
  util::FailpointRegistry::Get().Reset();
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  EstimateService service(&catalog);

  ASSERT_TRUE(
      util::FailpointRegistry::Get().Configure("serve/admission", "error")
          .ok());
  EstimateResponse rejected =
      service.SubmitAndWait(MakeRequest("book.author"));
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status.message().find("injected fault"),
            std::string::npos);

  ASSERT_TRUE(
      util::FailpointRegistry::Get().Configure("serve/admission", "off")
          .ok());
  ASSERT_TRUE(
      util::FailpointRegistry::Get().Configure("serve/estimate", "error")
          .ok());
  EstimateResponse failed = service.SubmitAndWait(MakeRequest("book.author"));
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  // The request was admitted and reached a worker: it reports the
  // snapshot it would have used.
  EXPECT_EQ(failed.snapshot_version, 1u);

  util::FailpointRegistry::Get().Reset();
  EXPECT_TRUE(service.SubmitAndWait(MakeRequest("book.author")).status.ok());
}

TEST(EstimateServiceTest, BrownoutShedsUncachedWorkButServesCacheHits) {
  SnapshotCatalog catalog;
  catalog.Publish(BuildFigureOneCst(), "v1");
  WorkerGate gate(/*armed=*/false);
  ServiceOptions options = gate.Options(/*queue_capacity=*/2);
  options.cache_entries = 64;
  EstimateService service(&catalog, options);

  // Warm the cache while the gate is open.
  ASSERT_TRUE(service.SubmitAndWait(MakeRequest("book.author")).status.ok());

  // Park the worker and fill the queue to capacity: depth 2/2 crosses
  // the 90% brown-out threshold at the next uncached admission.
  gate.Arm();
  std::future<EstimateResponse> in_flight =
      service.Submit(MakeRequest("book(author, year)"));
  gate.AwaitHeld();
  std::future<EstimateResponse> q1 =
      service.Submit(MakeRequest("book.publisher"));
  std::future<EstimateResponse> q2 =
      service.Submit(MakeRequest("book.title"));

  EstimateResponse shed = service.SubmitAndWait(MakeRequest("book.year"));
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status.message().find("browning out"), std::string::npos);
  EXPECT_GT(shed.retry_after.count(), 0);  // the Retry-After hint

  // A warmed cache entry costs no worker time: served mid-brown-out.
  EstimateResponse hit = service.SubmitAndWait(MakeRequest("book.author"));
  EXPECT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cached);

  gate.Release();
  EXPECT_TRUE(in_flight.get().status.ok());
  EXPECT_TRUE(q1.get().status.ok());
  EXPECT_TRUE(q2.get().status.ok());
}

// ---------------------------------------------------------------------------
// Wire protocol

obs::JsonValue MustParseJson(const std::string& text) {
  Result<obs::JsonValue> parsed = obs::ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.ok() ? std::move(parsed).value() : obs::JsonValue{};
}

TEST(WireTest, ParseAlgorithmNameCoversAllAlgorithms) {
  for (core::Algorithm algorithm : core::kAllAlgorithms) {
    core::Algorithm parsed;
    ASSERT_TRUE(ParseAlgorithmName(core::AlgorithmName(algorithm), &parsed));
    EXPECT_EQ(parsed, algorithm);
  }
  core::Algorithm parsed;
  EXPECT_FALSE(ParseAlgorithmName("msh", &parsed));  // case-sensitive
  EXPECT_FALSE(ParseAlgorithmName("", &parsed));
}

TEST(WireTest, ParseRequestReadsAllFieldsAndAppliesDefaults) {
  Result<WireRequest> r = ParseRequest(
      "{\"op\":\"estimate\",\"id\":7,\"query\":\"a(b, c)\",\"algo\":\"MO\","
      "\"semantics\":\"presence\",\"deadline_ms\":250.5,\"space\":0.05,"
      "\"future_field\":[1,2]}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->op, "estimate");
  EXPECT_TRUE(r->has_id);
  EXPECT_EQ(r->id, 7u);
  EXPECT_EQ(r->query, "a(b, c)");
  EXPECT_EQ(r->algorithm, core::Algorithm::kMo);
  EXPECT_EQ(r->semantics, core::CountSemantics::kPresence);
  EXPECT_DOUBLE_EQ(r->deadline_ms, 250.5);
  EXPECT_DOUBLE_EQ(r->space, 0.05);

  r = ParseRequest(
      "{\"op\":\"failpoint\",\"spec\":\"serve/estimate=error:0.1\"}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->spec, "serve/estimate=error:0.1");

  r = ParseRequest("{\"op\":\"ping\"}");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_id);
  EXPECT_EQ(r->algorithm, core::Algorithm::kMsh);
  EXPECT_EQ(r->semantics, core::CountSemantics::kOccurrence);
  EXPECT_DOUBLE_EQ(r->deadline_ms, 0.0);
}

TEST(WireTest, ParseRequestRejectsMalformedRequests) {
  for (const char* bad : {
           "not json",
           "[1,2,3]",                               // not an object
           "{}",                                    // missing op
           "{\"op\":3}",                            // op not a string
           "{\"op\":\"ping\",\"id\":-1}",           // negative id
           "{\"op\":\"ping\",\"id\":\"x\"}",        // id not a number
           "{\"op\":\"estimate\",\"query\":1}",     // query not a string
           "{\"op\":\"estimate\",\"algo\":\"nope\"}",
           "{\"op\":\"estimate\",\"semantics\":\"sometimes\"}",
           "{\"op\":\"estimate\",\"deadline_ms\":-5}",
           "{\"op\":\"swap\",\"space\":-0.1}",
       }) {
    Result<WireRequest> r = ParseRequest(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
  }
}

TEST(WireTest, ResponsesEncodeTheDocumentedSchema) {
  WireRequest request;
  request.op = "estimate";
  request.has_id = true;
  request.id = 42;
  request.algorithm = core::Algorithm::kMsh;

  EstimateResponse ok;
  ok.status = Status::OK();
  ok.estimate = 17.25;
  ok.snapshot_version = 3;
  ok.queue_wait = std::chrono::nanoseconds(1500);
  ok.exec_time = std::chrono::nanoseconds(2500);
  Result<obs::JsonValue> parsed =
      obs::ParseJson(EstimateWireResponse(request, ok));
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->GetNumber("id"), 42);
  EXPECT_TRUE(parsed->GetBool("ok"));
  EXPECT_EQ(parsed->GetString("op"), "estimate");
  EXPECT_DOUBLE_EQ(parsed->GetNumber("estimate"), 17.25);
  EXPECT_EQ(parsed->GetString("algo"), "MSH");
  EXPECT_DOUBLE_EQ(parsed->GetNumber("version"), 3);
  EXPECT_DOUBLE_EQ(parsed->GetNumber("wait_us"), 1.5);
  EXPECT_DOUBLE_EQ(parsed->GetNumber("exec_us"), 2.5);

  EstimateResponse failed;
  failed.status = Status::Unavailable("overloaded: request queue is full");
  parsed = obs::ParseJson(EstimateWireResponse(request, failed));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->GetBool("ok", true));
  const obs::JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "Unavailable");
  EXPECT_EQ(error->GetString("message"), "overloaded: request queue is full");

  // A line that never parsed gets an error response with no id echo.
  parsed = obs::ParseJson(
      ErrorResponse(nullptr, Status::ParseError("unrecognized JSON token")));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("id"), nullptr);
  EXPECT_FALSE(parsed->GetBool("ok", true));

  // Metrics responses embed the registry export as a nested document.
  WireRequest metrics_request;
  metrics_request.op = "metrics";
  parsed = obs::ParseJson(MetricsResponse(
      metrics_request, obs::MetricsRegistry::Get().Snapshot().ToJson(),
      /*version=*/1, /*queue_depth=*/0, /*queue_capacity=*/256));
  ASSERT_TRUE(parsed.ok());
  const obs::JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->Find("counters"), nullptr);
}

// Regression: validation used to be `number_value < 0`, which huge
// finite doubles pass — and 1e308 milliseconds overflows the
// steady_clock duration conversion in the TCP front-end (signed
// integer overflow, UB). NaN also passes `< 0` (every comparison with
// NaN is false); the strict JSON parser keeps NaN/Inf literals off
// the wire, so the helper is pinned directly too.
TEST(WireTest, RejectsNonFiniteAndOverflowingRangeFields) {
  Result<WireRequest> r =
      ParseRequest("{\"op\":\"estimate\",\"deadline_ms\":1e308}");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  r = ParseRequest("{\"op\":\"swap\",\"space\":1e308}");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  r = ParseRequest("{\"op\":\"estimate\",\"deadline_ms\":-1}");
  EXPECT_FALSE(r.ok());

  // The documented bounds themselves are accepted.
  r = ParseRequest("{\"op\":\"estimate\",\"deadline_ms\":1e9}");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  r = ParseRequest("{\"op\":\"swap\",\"space\":1e6}");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  r = ParseRequest("{\"op\":\"estimate\",\"deadline_ms\":1.000001e9}");
  EXPECT_FALSE(r.ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(IsFiniteNonNegative(nan, kMaxDeadlineMs));
  EXPECT_FALSE(IsFiniteNonNegative(inf, kMaxDeadlineMs));
  EXPECT_FALSE(IsFiniteNonNegative(-inf, kMaxDeadlineMs));
  EXPECT_FALSE(IsFiniteNonNegative(-1, kMaxDeadlineMs));
  EXPECT_FALSE(IsFiniteNonNegative(kMaxDeadlineMs * 1.01, kMaxDeadlineMs));
  EXPECT_TRUE(IsFiniteNonNegative(0, kMaxDeadlineMs));
  EXPECT_TRUE(IsFiniteNonNegative(-0.0, kMaxDeadlineMs));
  EXPECT_TRUE(IsFiniteNonNegative(kMaxDeadlineMs, kMaxDeadlineMs));
}

// Regression: a NaN/Inf estimate pushed through JsonWriter::Double
// renders as null (bare NaN is not JSON); the response must stay
// parseable and say what happened instead of silently nulling.
TEST(WireTest, NonFiniteEstimateEncodesAsNullPlusErrorFlag) {
  WireRequest request;
  request.op = "estimate";
  request.has_id = true;
  request.id = 5;

  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EstimateResponse response;
    response.status = Status::OK();
    response.estimate = bad;
    response.snapshot_version = 1;
    const std::string line = EstimateWireResponse(request, response);
    Result<obs::JsonValue> parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;  // the whole point: valid JSON
    const obs::JsonValue* estimate = parsed->Find("estimate");
    ASSERT_NE(estimate, nullptr);
    EXPECT_EQ(estimate->kind, obs::JsonValue::Kind::kNull);
    EXPECT_EQ(parsed->GetString("estimate_error"), "non-finite estimate");
  }

  // A finite estimate carries no error flag.
  EstimateResponse good;
  good.status = Status::OK();
  good.estimate = 2.5;
  Result<obs::JsonValue> parsed =
      obs::ParseJson(EstimateWireResponse(request, good));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("estimate_error"), nullptr);
  EXPECT_DOUBLE_EQ(parsed->GetNumber("estimate"), 2.5);
}

TEST(WireTest, CachedFlagRoundTripsThroughTheWire) {
  WireRequest request;
  request.op = "estimate";
  EstimateResponse response;
  response.status = Status::OK();
  response.estimate = 3.5;
  response.cached = true;
  Result<obs::JsonValue> parsed =
      obs::ParseJson(EstimateWireResponse(request, response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->GetBool("cached"));

  response.cached = false;
  parsed = obs::ParseJson(EstimateWireResponse(request, response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->GetBool("cached", true));
}

TEST(WireTest, StatsAndRecentResponsesEncodeTheDocumentedSchema) {
  WireRequest request;
  request.op = "stats";
  request.has_id = true;
  request.id = 7;

  // Hand-built snapshot: no global-registry noise in the assertions.
  const size_t msh_series =
      static_cast<size_t>(core::Algorithm::kMsh);  // pins series<->algorithm
  obs::MetricsSnapshot snapshot;
  for (int i = 0; i < 8; ++i) {
    snapshot.latency[msh_series].Record(1024);
  }
  snapshot.accuracy.recorded = 2;
  snapshot.accuracy.window = {0.5, -0.5};

  obs::FlightRecorder recorder(
      obs::FlightRecorderOptions{8, 8, /*slow_threshold_ns=*/1000});
  obs::SpanRecord span;
  span.request_id = 1;
  span.query = "book.author";
  span.series = static_cast<uint8_t>(msh_series);
  span.outcome = obs::SpanOutcome::kServed;
  span.offset_ns[static_cast<size_t>(obs::SpanStage::kAdmitted)] = 0;
  span.offset_ns[static_cast<size_t>(obs::SpanStage::kReplied)] = 500;
  recorder.Record(span);
  span.request_id = 2;
  span.offset_ns[static_cast<size_t>(obs::SpanStage::kReplied)] = 2000;
  recorder.Record(span);  // over the threshold: also in the slow log

  Result<obs::JsonValue> parsed = obs::ParseJson(
      StatsResponse(request, snapshot, &recorder, /*version=*/3,
                    /*queue_depth=*/1, /*queue_capacity=*/256));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->GetBool("ok"));
  EXPECT_EQ(parsed->GetString("op"), "stats");
  EXPECT_DOUBLE_EQ(parsed->GetNumber("id"), 7);
  EXPECT_DOUBLE_EQ(parsed->GetNumber("version"), 3);
  EXPECT_DOUBLE_EQ(parsed->GetNumber("schema_version"),
                   static_cast<double>(obs::kMetricsSchemaVersion));
  EXPECT_DOUBLE_EQ(parsed->GetNumber("queue_capacity"), 256);
  const obs::JsonValue* latency = parsed->Find("latency");
  ASSERT_NE(latency, nullptr);
  const obs::JsonValue* msh = latency->Find("MSH");
  ASSERT_NE(msh, nullptr);
  EXPECT_DOUBLE_EQ(msh->GetNumber("count"), 8);
  EXPECT_GT(msh->GetNumber("p50_us"), 0.0);
  EXPECT_LE(msh->GetNumber("p50_us"), msh->GetNumber("p99_us"));
  const obs::JsonValue* accuracy = parsed->Find("accuracy");
  ASSERT_NE(accuracy, nullptr);
  EXPECT_DOUBLE_EQ(accuracy->GetNumber("recorded"), 2);
  EXPECT_DOUBLE_EQ(accuracy->GetNumber("mean"), 0.0);
  EXPECT_DOUBLE_EQ(accuracy->GetNumber("mean_abs"), 0.5);
  const obs::JsonValue* rec = parsed->Find("recorder");
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->GetBool("enabled"));
  EXPECT_DOUBLE_EQ(rec->GetNumber("recorded"), 2);
  EXPECT_DOUBLE_EQ(rec->GetNumber("slow_recorded"), 1);
  EXPECT_DOUBLE_EQ(rec->GetNumber("slow_threshold_us"), 1.0);

  // Tracing disabled: stats still answers, the recorder is marked off.
  parsed = obs::ParseJson(
      StatsResponse(request, snapshot, nullptr, 3, 0, 256));
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->Find("recorder"), nullptr);
  EXPECT_FALSE(parsed->Find("recorder")->GetBool("enabled", true));

  request.op = "recent";
  parsed = obs::ParseJson(RecentResponse(request, &recorder, /*version=*/3));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->GetBool("ok"));
  EXPECT_EQ(parsed->GetString("op"), "recent");
  EXPECT_DOUBLE_EQ(parsed->GetNumber("recorded"), 2);
  EXPECT_DOUBLE_EQ(parsed->GetNumber("dropped"), 0);
  const obs::JsonValue* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->elements.size(), 2u);
  EXPECT_DOUBLE_EQ(spans->elements[0].GetNumber("id"), 1);
  EXPECT_EQ(spans->elements[0].GetString("outcome"), "served");
  EXPECT_EQ(spans->elements[0].GetString("algo"), "MSH");
  const obs::JsonValue* slow = parsed->Find("slow");
  ASSERT_NE(slow, nullptr);
  ASSERT_EQ(slow->elements.size(), 1u);
  EXPECT_DOUBLE_EQ(slow->elements[0].GetNumber("id"), 2);

  // `recent` with tracing off is a structured error, not a disconnect.
  parsed = obs::ParseJson(RecentResponse(request, nullptr, /*version=*/3));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->GetBool("ok", true));
  ASSERT_NE(parsed->Find("error"), nullptr);
  EXPECT_EQ(parsed->Find("error")->GetString("code"), "Unavailable");
}

TEST(WireTest, HealthFailpointAndRetryAfterEncodeTheDocumentedSchema) {
  WireRequest request;
  request.op = "health";
  request.has_id = true;
  request.id = 9;

  HealthReport report;
  report.state = HealthState::kBrownout;
  report.reason = "queue at 9/10";
  report.retry_after = milliseconds(50);
  obs::JsonValue health = MustParseJson(HealthResponse(request, report, 3));
  EXPECT_TRUE(health.GetBool("ok"));
  EXPECT_EQ(health.GetString("state"), "browning-out");
  EXPECT_EQ(health.GetString("reason"), "queue at 9/10");
  EXPECT_DOUBLE_EQ(health.GetNumber("retry_after_ms"), 50);
  EXPECT_DOUBLE_EQ(health.GetNumber("version"), 3);

  // A healthy report carries neither reason nor hint.
  obs::JsonValue ok = MustParseJson(HealthResponse(request, HealthReport{}, 3));
  EXPECT_EQ(ok.GetString("state"), "ok");
  EXPECT_EQ(ok.Find("reason"), nullptr);
  EXPECT_EQ(ok.Find("retry_after_ms"), nullptr);

  // A shed's Retry-After hint rides inside the error object.
  obs::JsonValue error = MustParseJson(ErrorResponse(
      &request, Status::Unavailable("browning out"), milliseconds(25)));
  ASSERT_NE(error.Find("error"), nullptr);
  EXPECT_DOUBLE_EQ(error.Find("error")->GetNumber("retry_after_ms"), 25);
  // No hint, no key.
  error = MustParseJson(ErrorResponse(&request, Status::Unavailable("x")));
  EXPECT_EQ(error.Find("error")->Find("retry_after_ms"), nullptr);

  util::FailpointInfo info;
  info.name = "serve/estimate";
  info.action = util::FailpointAction::kError;
  info.probability = 0.1;
  info.hits = 12;
  info.triggers = 2;
  request.op = "failpoint";
  obs::JsonValue listed = MustParseJson(FailpointResponse(request, {info}));
  EXPECT_TRUE(listed.GetBool("ok"));
  const obs::JsonValue* failpoints = listed.Find("failpoints");
  ASSERT_NE(failpoints, nullptr);
  ASSERT_EQ(failpoints->elements.size(), 1u);
  const obs::JsonValue& entry = failpoints->elements[0];
  EXPECT_EQ(entry.GetString("name"), "serve/estimate");
  EXPECT_EQ(entry.GetString("action"), "error");
  EXPECT_DOUBLE_EQ(entry.GetNumber("probability"), 0.1);
  EXPECT_DOUBLE_EQ(entry.GetNumber("hits"), 12);
  EXPECT_DOUBLE_EQ(entry.GetNumber("triggers"), 2);
}

// ---------------------------------------------------------------------------
// TCP front-end (loopback)

/// Minimal blocking line-protocol client for the tests.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 &&
                 connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) == 0;
  }

  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return connected_; }

  /// Sends one line, returns the one-line response (empty on EOF).
  std::string RoundTrip(const std::string& request) {
    std::string line = request + "\n";
    if (send(fd_, line.data(), line.size(), MSG_NOSIGNAL) < 0) return "";
    return ReadLine();
  }

  /// Sends one line without waiting for the reply (hangup tests).
  void Send(const std::string& request) {
    std::string line = request + "\n";
    (void)send(fd_, line.data(), line.size(), MSG_NOSIGNAL);
  }

  std::string ReadLine() {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

class TcpFrontEndTest : public ::testing::Test {
 protected:
  void StartServer(TcpOptions options = {}) {
    catalog_.Publish(SharedCorpus().BuildCst(0.02), "v1");
    ServiceOptions sopt;
    sopt.num_workers = 2;
    service_.emplace(&catalog_, sopt);
    options.port = 0;  // ephemeral
    front_end_.emplace(&catalog_, &*service_, options);
    ASSERT_TRUE(front_end_->Start().ok());
  }

  void TearDown() override {
    if (front_end_.has_value()) front_end_->Stop();
    // Failpoints are process-global; never leak one into other tests.
    util::FailpointRegistry::Get().Reset();
  }

  SnapshotCatalog catalog_;
  std::optional<EstimateService> service_;
  std::optional<TcpFrontEnd> front_end_;
};

TEST_F(TcpFrontEndTest, AnswersTheCoreOpsOverLoopback) {
  StartServer();
  TestClient client(front_end_->port());
  ASSERT_TRUE(client.connected());

  obs::JsonValue pong =
      MustParseJson(client.RoundTrip("{\"op\":\"ping\",\"id\":1}"));
  EXPECT_TRUE(pong.GetBool("ok"));
  EXPECT_DOUBLE_EQ(pong.GetNumber("id"), 1);
  EXPECT_DOUBLE_EQ(pong.GetNumber("version"), 1);

  // A served estimate equals the direct estimator call bit for bit.
  const std::shared_ptr<const CstSnapshot> snapshot = catalog_.Current();
  const double expected =
      core::TwigEstimator(snapshot->summary.get())
          .Estimate(MustParse("article(author, year)"),
                    core::Algorithm::kMsh);
  obs::JsonValue estimate = MustParseJson(client.RoundTrip(
      "{\"op\":\"estimate\",\"id\":2,\"query\":\"article(author, year)\","
      "\"algo\":\"MSH\"}"));
  EXPECT_TRUE(estimate.GetBool("ok"));
  EXPECT_EQ(estimate.GetNumber("estimate"), expected);
  EXPECT_DOUBLE_EQ(estimate.GetNumber("version"), 1);

  obs::JsonValue explain = MustParseJson(client.RoundTrip(
      "{\"op\":\"explain\",\"id\":3,\"query\":\"article.author\"}"));
  EXPECT_TRUE(explain.GetBool("ok"));
  const obs::JsonValue* trace = explain.Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->GetString("query"), "article.author");

  obs::JsonValue metrics =
      MustParseJson(client.RoundTrip("{\"op\":\"metrics\",\"id\":4}"));
  EXPECT_TRUE(metrics.GetBool("ok"));
  ASSERT_NE(metrics.Find("metrics"), nullptr);
  EXPECT_NE(metrics.Find("metrics")->Find("counters"), nullptr);
}

TEST_F(TcpFrontEndTest, StatsAndRecentVerbsReflectServedTraffic) {
  StartServer();
  TestClient client(front_end_->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(MustParseJson(client.RoundTrip(
                  "{\"op\":\"estimate\",\"id\":1,"
                  "\"query\":\"article.author\"}"))
                  .GetBool("ok"));

  obs::JsonValue stats =
      MustParseJson(client.RoundTrip("{\"op\":\"stats\",\"id\":2}"));
  EXPECT_TRUE(stats.GetBool("ok"));
  EXPECT_DOUBLE_EQ(stats.GetNumber("schema_version"),
                   static_cast<double>(obs::kMetricsSchemaVersion));
  ASSERT_NE(stats.Find("latency"), nullptr);
  ASSERT_NE(stats.Find("latency")->Find("MSH"), nullptr);
  ASSERT_NE(stats.Find("accuracy"), nullptr);
  ASSERT_NE(stats.Find("recorder"), nullptr);
  EXPECT_TRUE(stats.Find("recorder")->GetBool("enabled"));
  EXPECT_GE(stats.Find("recorder")->GetNumber("recorded"), 1.0);

  obs::JsonValue recent =
      MustParseJson(client.RoundTrip("{\"op\":\"recent\",\"id\":3}"));
  EXPECT_TRUE(recent.GetBool("ok"));
  const obs::JsonValue* spans = recent.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_GE(spans->elements.size(), 1u);
  const obs::JsonValue& last = spans->elements.back();
  EXPECT_EQ(last.GetString("query"), "article.author");
  EXPECT_EQ(last.GetString("outcome"), "served");
  EXPECT_NE(last.Find("stages_us"), nullptr);
}

TEST_F(TcpFrontEndTest, BadInputGetsStructuredErrorsNotDisconnects) {
  StartServer();
  TestClient client(front_end_->port());
  ASSERT_TRUE(client.connected());

  obs::JsonValue error = MustParseJson(client.RoundTrip("this is not json"));
  EXPECT_FALSE(error.GetBool("ok", true));
  EXPECT_EQ(error.Find("error")->GetString("code"), "ParseError");

  error = MustParseJson(client.RoundTrip("{\"op\":\"frobnicate\",\"id\":9}"));
  EXPECT_FALSE(error.GetBool("ok", true));
  EXPECT_DOUBLE_EQ(error.GetNumber("id"), 9);  // id echoes on errors too
  EXPECT_EQ(error.Find("error")->GetString("code"), "InvalidArgument");

  error = MustParseJson(
      client.RoundTrip("{\"op\":\"estimate\",\"query\":\"((bad\"}"));
  EXPECT_FALSE(error.GetBool("ok", true));

  // Swap without a configured rebuild source is Unimplemented.
  error = MustParseJson(client.RoundTrip("{\"op\":\"swap\",\"id\":10}"));
  EXPECT_EQ(error.Find("error")->GetString("code"), "Unimplemented");

  // The connection survived all of the above.
  EXPECT_TRUE(
      MustParseJson(client.RoundTrip("{\"op\":\"ping\"}")).GetBool("ok"));
}

TEST_F(TcpFrontEndTest, OversizedLinesCloseTheConnectionWithAnError) {
  TcpOptions options;
  options.max_line_bytes = 128;
  StartServer(options);
  TestClient client(front_end_->port());
  ASSERT_TRUE(client.connected());
  const std::string huge(4096, 'x');  // no newline: exceeds the buffer cap
  obs::JsonValue error = MustParseJson(client.RoundTrip(huge));
  EXPECT_FALSE(error.GetBool("ok", true));
  EXPECT_EQ(error.Find("error")->GetString("code"), "InvalidArgument");
  EXPECT_EQ(client.ReadLine(), "");  // then the server hangs up
}

TEST_F(TcpFrontEndTest, SwapRebuildsAndPublishesANewVersion) {
  TcpOptions options;
  options.rebuild_view = [](double space) {
    return Result<std::shared_ptr<const cst::CstView>>(
        std::make_shared<const cst::Cst>(
            SharedCorpus().BuildCst(space > 0 ? space : 0.02)));
  };
  StartServer(options);
  TestClient client(front_end_->port());
  ASSERT_TRUE(client.connected());

  obs::JsonValue swapped = MustParseJson(
      client.RoundTrip("{\"op\":\"swap\",\"id\":1,\"space\":0.05}"));
  EXPECT_TRUE(swapped.GetBool("ok"));
  EXPECT_DOUBLE_EQ(swapped.GetNumber("version"), 2);
  EXPECT_EQ(catalog_.version(), 2u);

  // Estimates now come from the new snapshot.
  obs::JsonValue estimate = MustParseJson(client.RoundTrip(
      "{\"op\":\"estimate\",\"id\":2,\"query\":\"article.author\"}"));
  EXPECT_TRUE(estimate.GetBool("ok"));
  EXPECT_DOUBLE_EQ(estimate.GetNumber("version"), 2);
}

TEST_F(TcpFrontEndTest, ShutdownOpStopsWaitForShutdown) {
  StartServer();
  std::thread waiter([&] { front_end_->WaitForShutdown(); });
  {
    TestClient client(front_end_->port());
    ASSERT_TRUE(client.connected());
    obs::JsonValue bye =
        MustParseJson(client.RoundTrip("{\"op\":\"shutdown\",\"id\":1}"));
    EXPECT_TRUE(bye.GetBool("ok"));
    EXPECT_TRUE(bye.GetBool("stopping"));
  }
  waiter.join();  // returns only because the op requested the stop
  front_end_->Stop();  // idempotent after WaitForShutdown's teardown
}

TEST_F(TcpFrontEndTest, HealthVerbTracksRebuildFailureAndRecovery) {
  StartServer();
  TestClient client(front_end_->port());
  ASSERT_TRUE(client.connected());

  obs::JsonValue health =
      MustParseJson(client.RoundTrip("{\"op\":\"health\",\"id\":1}"));
  EXPECT_TRUE(health.GetBool("ok"));
  EXPECT_EQ(health.GetString("state"), "ok");

  // A failed rebuild leaves the last good snapshot serving and flips
  // health degraded with the failure as the reason.
  ASSERT_TRUE(catalog_.BeginRebuild(
      [] { return Result<cst::Cst>(Status::Corruption("disk ate it")); },
      "doomed"));
  EXPECT_FALSE(catalog_.WaitForRebuild().ok());
  health = MustParseJson(client.RoundTrip("{\"op\":\"health\",\"id\":2}"));
  EXPECT_EQ(health.GetString("state"), "degraded");
  EXPECT_NE(health.GetString("reason").find("rebuild failed"),
            std::string_view::npos);
  obs::JsonValue estimate = MustParseJson(client.RoundTrip(
      "{\"op\":\"estimate\",\"id\":3,\"query\":\"article.author\"}"));
  EXPECT_TRUE(estimate.GetBool("ok"));
  EXPECT_DOUBLE_EQ(estimate.GetNumber("version"), 1);

  // The next successful rebuild clears the degradation.
  ASSERT_TRUE(catalog_.BeginRebuild(
      [] { return Result<cst::Cst>(SharedCorpus().BuildCst(0.02)); },
      "fixed"));
  EXPECT_TRUE(catalog_.WaitForRebuild().ok());
  health = MustParseJson(client.RoundTrip("{\"op\":\"health\",\"id\":4}"));
  EXPECT_EQ(health.GetString("state"), "ok");
  EXPECT_DOUBLE_EQ(health.GetNumber("version"), 2);
}

TEST_F(TcpFrontEndTest, FailpointVerbArmsListsAndDisarmsOverTheWire) {
  util::FailpointRegistry::Get().Reset();
  StartServer();
  TestClient client(front_end_->port());
  ASSERT_TRUE(client.connected());

  obs::JsonValue armed = MustParseJson(client.RoundTrip(
      "{\"op\":\"failpoint\",\"id\":1,\"spec\":\"serve/estimate=error\"}"));
  ASSERT_TRUE(armed.GetBool("ok"));
  const obs::JsonValue* failpoints = armed.Find("failpoints");
  ASSERT_NE(failpoints, nullptr);
  ASSERT_EQ(failpoints->elements.size(), 1u);
  EXPECT_EQ(failpoints->elements[0].GetString("name"), "serve/estimate");
  EXPECT_EQ(failpoints->elements[0].GetString("action"), "error");

  obs::JsonValue failed = MustParseJson(client.RoundTrip(
      "{\"op\":\"estimate\",\"id\":2,\"query\":\"article.author\"}"));
  EXPECT_FALSE(failed.GetBool("ok", true));
  EXPECT_EQ(failed.Find("error")->GetString("code"), "Unavailable");

  // A malformed spec is a structured error, not a disconnect.
  obs::JsonValue bad = MustParseJson(client.RoundTrip(
      "{\"op\":\"failpoint\",\"id\":3,\"spec\":\"nonsense\"}"));
  EXPECT_FALSE(bad.GetBool("ok", true));
  EXPECT_EQ(bad.Find("error")->GetString("code"), "InvalidArgument");

  // Disarm over the wire; the empty spec lists stats that prove the
  // fault actually landed.
  ASSERT_TRUE(MustParseJson(
                  client.RoundTrip("{\"op\":\"failpoint\",\"id\":4,"
                                   "\"spec\":\"serve/estimate=off\"}"))
                  .GetBool("ok"));
  obs::JsonValue listed = MustParseJson(
      client.RoundTrip("{\"op\":\"failpoint\",\"id\":5}"));
  ASSERT_TRUE(listed.GetBool("ok"));
  const obs::JsonValue& entry = listed.Find("failpoints")->elements[0];
  EXPECT_EQ(entry.GetString("action"), "off");
  EXPECT_GE(entry.GetNumber("hits"), 1.0);
  EXPECT_GE(entry.GetNumber("triggers"), 1.0);

  obs::JsonValue served = MustParseJson(client.RoundTrip(
      "{\"op\":\"estimate\",\"id\":6,\"query\":\"article.author\"}"));
  EXPECT_TRUE(served.GetBool("ok"));
}

// Satellite regression for the EINTR/partial-write hardening: a client
// that hangs up before (or while) the reply is written must surface as
// EPIPE on the handler thread, never as SIGPIPE killing the process.
TEST_F(TcpFrontEndTest, HangupMidReplyLeavesTheServerServing) {
  StartServer();
  for (int i = 0; i < 8; ++i) {
    TestClient hangup(front_end_->port());
    ASSERT_TRUE(hangup.connected());
    hangup.Send(
        "{\"op\":\"estimate\",\"id\":1,\"query\":\"article.author\"}");
    // Destructor closes the socket immediately, racing the reply.
  }
  TestClient client(front_end_->port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(
      MustParseJson(client.RoundTrip("{\"op\":\"ping\",\"id\":9}"))
          .GetBool("ok"));
}

TEST_F(TcpFrontEndTest, TornIoFailpointsDropConnectionsCleanly) {
  StartServer();
  // tcp/write tears the reply mid-line: the client sees a truncated
  // line then EOF, and the server carries on.
  ASSERT_TRUE(
      util::FailpointRegistry::Get().Configure("tcp/write", "error").ok());
  {
    TestClient client(front_end_->port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.RoundTrip("{\"op\":\"ping\",\"id\":1}"), "");
  }
  // tcp/read drops the connection before the request is handled.
  ASSERT_TRUE(
      util::FailpointRegistry::Get().Configure("tcp/write", "off").ok());
  ASSERT_TRUE(
      util::FailpointRegistry::Get().Configure("tcp/read", "error").ok());
  {
    TestClient client(front_end_->port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.RoundTrip("{\"op\":\"ping\",\"id\":2}"), "");
  }
  util::FailpointRegistry::Get().Reset();
  TestClient client(front_end_->port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(
      MustParseJson(client.RoundTrip("{\"op\":\"ping\",\"id\":3}"))
          .GetBool("ok"));
}

TEST_F(TcpFrontEndTest, PipelinedBurstRepliesByteIdenticalToSequential) {
  // The framing regression this pins down: the old per-recv
  // buffer.erase(0, ...) compaction was quadratic over a pipelined
  // burst, and any consume-offset bug reorders or tears replies. A
  // burst sent as one write must produce the exact reply bytes of the
  // same requests sent one at a time.
  StartServer();
  std::vector<std::string> requests;
  requests.reserve(200);
  for (int i = 0; i < 200; ++i) {
    requests.push_back("{\"op\":\"ping\",\"id\":" + std::to_string(i) + "}");
  }

  std::vector<std::string> sequential;
  {
    TestClient client(front_end_->port());
    ASSERT_TRUE(client.connected());
    for (const std::string& request : requests) {
      sequential.push_back(client.RoundTrip(request));
      ASSERT_FALSE(sequential.back().empty());
    }
  }

  TestClient client(front_end_->port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (const std::string& request : requests) burst += request + "\n";
  client.Send(burst.substr(0, burst.size() - 1));  // Send re-adds one \n
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(client.ReadLine(), sequential[i]) << "reply " << i;
  }
}

TEST_F(TcpFrontEndTest, PipelinedEstimatesReplyInRequestOrder) {
  // Estimates resolve through futures off the event loop; the reply
  // slots must still release them in request order, interleaved
  // correctly with inline ops.
  StartServer();
  const char* kQueries[] = {"article(author, year)", "article.title",
                            "inproceedings(author, pages)",
                            "book.publisher"};
  std::string burst;
  for (int i = 0; i < 40; ++i) {
    if (i % 5 == 4) {
      burst += "{\"op\":\"ping\",\"id\":" + std::to_string(i) + "}\n";
    } else {
      burst += "{\"op\":\"estimate\",\"id\":" + std::to_string(i) +
               ",\"query\":\"" + std::string(kQueries[i % 4]) + "\"}\n";
    }
  }
  TestClient client(front_end_->port());
  ASSERT_TRUE(client.connected());
  client.Send(burst.substr(0, burst.size() - 1));
  for (int i = 0; i < 40; ++i) {
    obs::JsonValue reply = MustParseJson(client.ReadLine());
    EXPECT_TRUE(reply.GetBool("ok")) << i;
    EXPECT_DOUBLE_EQ(reply.GetNumber("id"), i);
    EXPECT_EQ(reply.GetString("op"), i % 5 == 4 ? "ping" : "estimate");
  }
}

TEST_F(TcpFrontEndTest, AcceptRidesOutFdExhaustion) {
  // The accept-death regression: a transient EMFILE from accept() used
  // to kill the handler thread for good — the server stayed up but
  // went deaf. Now it counts a retry, backs off, and accepts again
  // once descriptors free up.
  StartServer();
  {
    TestClient warm(front_end_->port());
    ASSERT_TRUE(warm.connected());
    EXPECT_TRUE(MustParseJson(warm.RoundTrip("{\"op\":\"ping\",\"id\":1}"))
                    .GetBool("ok"));
  }
  const auto retries = [] {
    return obs::MetricsRegistry::Get().Snapshot().counters[static_cast<size_t>(
        obs::Counter::kServeAcceptRetries)];
  };
  const uint64_t before = retries();

  rlimit old_limit{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  rlimit low = old_limit;
  low.rlim_cur = 256;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &low), 0);

  // Exhaust the process's descriptors, keeping one in reserve for the
  // victim client's socket.
  std::vector<int> hogs;
  for (;;) {
    const int fd = open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    hogs.push_back(fd);
  }
  ASSERT_FALSE(hogs.empty());
  close(hogs.back());
  hogs.pop_back();

  // The victim's connect completes from the listen backlog without the
  // server spending a descriptor; the server's accept4 hits EMFILE.
  TestClient victim(front_end_->port());
  ASSERT_TRUE(victim.connected());
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (retries() == before && Clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_GT(retries(), before);

  // Release the descriptors: the backlogged connection must now be
  // accepted and served — the listener never died.
  for (const int fd : hogs) close(fd);
  hogs.clear();
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  const std::string reply = victim.RoundTrip("{\"op\":\"ping\",\"id\":2}");
  ASSERT_FALSE(reply.empty());
  EXPECT_TRUE(MustParseJson(reply).GetBool("ok"));
}

// ---------------------------------------------------------------------------
// Multi-dataset, multi-tenant serving over TCP

TEST(MultiDatasetTcpTest, RoutesEstimatesSwapsAndStatsPerDataset) {
  DatasetCatalog datasets;
  SnapshotCatalog* big = datasets.Create("big");
  SnapshotCatalog* alt = datasets.Create("alt");
  big->Publish(SharedCorpus().BuildCst(0.02), "big-v1");
  alt->Publish(AltCorpus().BuildCst(0.02), "alt-v1");

  ServiceOptions sopt;
  sopt.num_workers = 2;
  sopt.cache_entries = 64;
  EstimateService service(&datasets, sopt);

  TcpOptions topt;
  topt.dataset_rebuilds["big"].rebuild_view = [](double space) {
    return Result<std::shared_ptr<const cst::CstView>>(
        std::make_shared<const cst::Cst>(
            SharedCorpus().BuildCst(space > 0 ? space : 0.02)));
  };
  TcpFrontEnd front_end(&datasets, &service, topt);
  ASSERT_TRUE(front_end.Start().ok());

  const char* kQuery = "article(author, year)";
  const double expected_big =
      core::TwigEstimator(big->Current()->summary.get())
          .Estimate(MustParse(kQuery), core::Algorithm::kMsh);
  const double expected_alt =
      core::TwigEstimator(alt->Current()->summary.get())
          .Estimate(MustParse(kQuery), core::Algorithm::kMsh);
  ASSERT_NE(expected_big, expected_alt);

  TestClient client(front_end.port());
  ASSERT_TRUE(client.connected());
  const auto estimate_on = [&](const char* dataset) {
    return MustParseJson(client.RoundTrip(
        std::string("{\"op\":\"estimate\",\"id\":1,\"query\":\"") + kQuery +
        "\",\"dataset\":\"" + dataset + "\"}"));
  };

  // Identical query, different dataset, different correct answer —
  // and the response echoes which dataset served it.
  obs::JsonValue on_big = estimate_on("big");
  ASSERT_TRUE(on_big.GetBool("ok"));
  EXPECT_DOUBLE_EQ(on_big.GetNumber("estimate"), expected_big);
  EXPECT_EQ(on_big.GetString("dataset"), "big");
  obs::JsonValue on_alt = estimate_on("alt");
  ASSERT_TRUE(on_alt.GetBool("ok"));
  EXPECT_DOUBLE_EQ(on_alt.GetNumber("estimate"), expected_alt);
  EXPECT_EQ(on_alt.GetString("dataset"), "alt");

  // Unknown datasets are structured errors on every routed verb.
  obs::JsonValue unknown = MustParseJson(client.RoundTrip(
      "{\"op\":\"ping\",\"id\":2,\"dataset\":\"nope\"}"));
  EXPECT_FALSE(unknown.GetBool("ok", true));
  EXPECT_EQ(unknown.Find("error")->GetString("code"), "InvalidArgument");

  // Swap routes per dataset: big moves to v2, alt stays at v1 and its
  // answers are bit-identical across the other dataset's swap.
  obs::JsonValue swapped = MustParseJson(client.RoundTrip(
      "{\"op\":\"swap\",\"id\":3,\"dataset\":\"big\",\"space\":0.05}"));
  ASSERT_TRUE(swapped.GetBool("ok"));
  EXPECT_DOUBLE_EQ(swapped.GetNumber("version"), 2);
  EXPECT_EQ(big->version(), 2u);
  EXPECT_EQ(alt->version(), 1u);
  obs::JsonValue alt_after = estimate_on("alt");
  ASSERT_TRUE(alt_after.GetBool("ok"));
  EXPECT_DOUBLE_EQ(alt_after.GetNumber("estimate"), expected_alt);
  EXPECT_DOUBLE_EQ(alt_after.GetNumber("version"), 1);

  // A dataset without a rebuild source refuses to swap, structurally.
  obs::JsonValue no_source = MustParseJson(client.RoundTrip(
      "{\"op\":\"swap\",\"id\":4,\"dataset\":\"alt\"}"));
  EXPECT_FALSE(no_source.GetBool("ok", true));
  EXPECT_EQ(no_source.Find("error")->GetString("code"), "Unimplemented");

  // The stats verb reports every dataset's version.
  obs::JsonValue stats = MustParseJson(
      client.RoundTrip("{\"op\":\"stats\",\"id\":5,\"dataset\":\"big\"}"));
  ASSERT_TRUE(stats.GetBool("ok"));
  const obs::JsonValue* per_dataset = stats.Find("datasets");
  ASSERT_NE(per_dataset, nullptr);
  EXPECT_DOUBLE_EQ(per_dataset->Find("big")->GetNumber("version"), 2);
  EXPECT_DOUBLE_EQ(per_dataset->Find("alt")->GetNumber("version"), 1);

  front_end.Stop();
}

TEST(MultiTenantTcpTest, HotTenantThrottledWithRetryHintOthersServed) {
  SnapshotCatalog catalog;
  catalog.Publish(SharedCorpus().BuildCst(0.02), "v1");
  ServiceOptions sopt;
  sopt.num_workers = 2;
  sopt.tenants.overrides["hot"].rate = 0.001;
  sopt.tenants.overrides["hot"].burst = 1;
  EstimateService service(&catalog, sopt);
  TcpFrontEnd front_end(&catalog, &service);
  ASSERT_TRUE(front_end.Start().ok());

  TestClient client(front_end.port());
  ASSERT_TRUE(client.connected());
  const auto estimate_as = [&](const char* tenant, int id) {
    return MustParseJson(client.RoundTrip(
        "{\"op\":\"estimate\",\"id\":" + std::to_string(id) +
        ",\"query\":\"article.author\",\"tenant\":\"" + tenant + "\"}"));
  };

  // The hot tenant spends its burst of one, then gets a structured
  // throttle carrying the token-bucket backoff hint.
  EXPECT_TRUE(estimate_as("hot", 1).GetBool("ok"));
  obs::JsonValue throttled = estimate_as("hot", 2);
  EXPECT_FALSE(throttled.GetBool("ok", true));
  const obs::JsonValue* error = throttled.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "Unavailable");
  EXPECT_NE(error->GetString("message").find("throttled"),
            std::string::npos);
  EXPECT_GE(error->GetNumber("retry_after_ms"), 1);

  // A different tenant on the same connection keeps being served.
  EXPECT_TRUE(estimate_as("calm", 3).GetBool("ok"));

  // The stats verb reports per-tenant admission accounting.
  obs::JsonValue stats =
      MustParseJson(client.RoundTrip("{\"op\":\"stats\",\"id\":4}"));
  ASSERT_TRUE(stats.GetBool("ok"));
  const obs::JsonValue* tenants = stats.Find("tenants");
  ASSERT_NE(tenants, nullptr);
  bool saw_hot = false;
  for (const obs::JsonValue& tenant : tenants->elements) {
    if (tenant.GetString("tenant") == "hot") {
      saw_hot = true;
      EXPECT_GE(tenant.GetNumber("admitted"), 1);
      EXPECT_GE(tenant.GetNumber("throttled"), 1);
    }
  }
  EXPECT_TRUE(saw_hot);

  front_end.Stop();
}

// ---------------------------------------------------------------------------
// End-to-end: concurrent clients, hot swap mid-run, exact answers

TEST(ServeEndToEndTest, ConcurrentLoadSurvivesAHotSwapWithExactAnswers) {
  const Corpus& corpus = SharedCorpus();
  SnapshotCatalog catalog;
  catalog.Publish(corpus.BuildCst(0.02), "v1");
  ServiceOptions sopt;
  sopt.num_workers = 2;
  EstimateService service(&catalog, sopt);
  TcpOptions topt;
  topt.rebuild_view = [&corpus](double) {
    return Result<std::shared_ptr<const cst::CstView>>(
        std::make_shared<const cst::Cst>(corpus.BuildCst(0.05)));
  };
  TcpFrontEnd front_end(&catalog, &service, topt);
  ASSERT_TRUE(front_end.Start().ok());

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Get().Snapshot();
  const query::Twig twig = MustParse("article(author, year)");
  // Ground truth per version, pinned before and after the swap.
  const double expected_v1 =
      core::TwigEstimator(catalog.Current()->summary.get())
          .Estimate(twig, core::Algorithm::kMsh);

  constexpr size_t kClients = 4;
  constexpr size_t kRequestsPerClient = 100;
  std::atomic<size_t> transport_errors{0};
  std::atomic<size_t> served{0};
  std::atomic<size_t> structured_errors{0};
  std::mutex mutex;
  std::map<uint64_t, std::vector<double>> estimates_by_version;

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      TestClient client(front_end.port());
      if (!client.connected()) {
        transport_errors.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < kRequestsPerClient; ++i) {
        const std::string response = client.RoundTrip(
            "{\"op\":\"estimate\",\"query\":\"article(author, year)\","
            "\"algo\":\"MSH\"}");
        Result<obs::JsonValue> parsed = obs::ParseJson(response);
        if (!parsed.ok()) {
          transport_errors.fetch_add(1);
          continue;
        }
        if (parsed->GetBool("ok")) {
          served.fetch_add(1);
          std::lock_guard<std::mutex> lock(mutex);
          estimates_by_version[static_cast<uint64_t>(
                                   parsed->GetNumber("version"))]
              .push_back(parsed->GetNumber("estimate"));
        } else if (parsed->Find("error") != nullptr) {
          structured_errors.fetch_add(1);  // overloads are answers too
        } else {
          transport_errors.fetch_add(1);
        }
      }
    });
  }

  // Hot swap roughly mid-run, over the wire like any other client.
  TestClient swapper(front_end.port());
  ASSERT_TRUE(swapper.connected());
  obs::JsonValue swapped =
      MustParseJson(swapper.RoundTrip("{\"op\":\"swap\",\"id\":1}"));
  EXPECT_TRUE(swapped.GetBool("ok"));
  const double expected_v2 =
      core::TwigEstimator(catalog.Current()->summary.get())
          .Estimate(twig, core::Algorithm::kMsh);

  for (std::thread& t : clients) t.join();
  front_end.Stop();
  service.Shutdown(/*drain=*/true);

  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_EQ(served.load() + structured_errors.load(),
            kClients * kRequestsPerClient);
  EXPECT_GT(served.load(), 0u);
  // Every served estimate matches the direct estimator on the exact
  // snapshot version that served it — bit for bit, swap or no swap.
  for (const auto& [version, estimates] : estimates_by_version) {
    ASSERT_TRUE(version == 1 || version == 2) << version;
    const double expected = version == 1 ? expected_v1 : expected_v2;
    for (double estimate : estimates) EXPECT_EQ(estimate, expected);
  }
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Get().Snapshot().Delta(before);
  const auto count = [&](obs::Counter c) {
    return delta.counters[static_cast<size_t>(c)];
  };
  EXPECT_GE(count(obs::Counter::kServeEnqueued), served.load());
  EXPECT_GE(count(obs::Counter::kServeServed), served.load());
  EXPECT_GE(count(obs::Counter::kSnapshotPublishes), 1u);
}

}  // namespace
}  // namespace twig::serve
