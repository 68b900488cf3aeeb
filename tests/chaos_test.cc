// Chaos suite (DESIGN.md §14): randomized fault injection across the
// serving path, holding three invariants whatever the fault schedule:
//
//   1. Every admitted request resolves exactly once — an estimate or a
//      structured error, never a hang, never a double answer.
//   2. Answers are never torn: all responses claiming one snapshot
//      version agree bit-for-bit per query, and agree with a direct
//      estimator call pinned on that version.
//   3. A failed rebuild leaves the last good snapshot serving; client
//      retry rides out transient faults with high goodput.
//
// Fault schedules draw from the seeded failpoint Rng, so a failing run
// replays. Run under ASan/TSan via the verify-asan / verify-tsan /
// verify-chaos workflows.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "cst/cst.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "query/twig.h"
#include "serve/retry.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "suffix/path_suffix_tree.h"
#include "tree/tree.h"
#include "util/failpoint.h"
#include "xml/xml.h"

namespace twig::serve {
namespace {

using std::chrono::milliseconds;

uint64_t CounterValue(obs::Counter counter) {
  return obs::MetricsRegistry::Get().Snapshot().counters[static_cast<size_t>(
      counter)];
}

query::Twig MustParse(const char* text) {
  Result<query::Twig> twig = query::ParseTwig(text);
  EXPECT_TRUE(twig.ok()) << text;
  return std::move(twig).value();
}

EstimateRequest MakeRequest(const char* text) {
  EstimateRequest request;
  request.twig = MustParse(text);
  request.algorithm = core::Algorithm::kMsh;
  return request;
}

/// One generated corpus shared by the suite; CSTs at two space
/// fractions so swaps change real content.
struct ChaosCorpus {
  tree::Tree data;
  size_t xml_bytes;
  suffix::PathSuffixTree pst;

  ChaosCorpus() {
    data::DblpOptions gen;
    gen.target_bytes = 64 * 1024;
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

const ChaosCorpus& Corpus() {
  static const ChaosCorpus* corpus = new ChaosCorpus();
  return *corpus;
}

constexpr const char* kQueries[] = {
    "article(author, year)",
    "article.title",
    "inproceedings(author, pages)",
    "book.publisher",
};

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FailpointRegistry::Get().Reset();
    util::FailpointRegistry::Get().Seed(0xc4a05u);
  }

  void TearDown() override { util::FailpointRegistry::Get().Reset(); }
};

// Invariant 1: with admission and execution faults firing at random,
// every submitted request resolves exactly once, and everything that
// was served matches the direct estimator bit for bit.
TEST_F(ChaosTest, EveryRequestResolvesExactlyOnceUnderInjectedFaults) {
  SnapshotCatalog catalog;
  catalog.Publish(Corpus().BuildCst(0.02), "v1");
  const std::shared_ptr<const CstSnapshot> snapshot = catalog.Current();
  const core::TwigEstimator direct(snapshot->summary.get());
  std::map<std::string, double> expected;
  for (const char* text : kQueries) {
    expected[text] =
        direct.Estimate(MustParse(text), core::Algorithm::kMsh);
  }

  ASSERT_TRUE(util::FailpointRegistry::Get()
                  .ConfigureList("serve/admission=error:0.1,"
                                 "serve/estimate=error:0.2")
                  .ok());
  ServiceOptions options;
  options.num_workers = 2;
  EstimateService service(&catalog, options);

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 200;
  std::atomic<size_t> served{0}, failed{0}, mismatched{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const char* text = kQueries[(t + i) % std::size(kQueries)];
        // SubmitAndWait resolving is itself the exactly-once check: a
        // dropped promise would throw, a hang would time the suite out.
        EstimateResponse response = service.SubmitAndWait(MakeRequest(text));
        if (response.status.ok()) {
          served.fetch_add(1);
          if (response.estimate != expected[text]) mismatched.fetch_add(1);
        } else {
          failed.fetch_add(1);
          // Injected faults surface as transient Unavailable, exactly
          // like an overload — retryable, never a torn answer.
          EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(served.load() + failed.load(), kThreads * kPerThread);
  EXPECT_EQ(mismatched.load(), 0u);
  // At 10% + 20% fault rates both outcomes must actually occur, or the
  // chaos never landed.
  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(failed.load(), 0u);
  EXPECT_GE(util::FailpointRegistry::Get().Info("serve/estimate").triggers,
            1u);
}

// Invariant 2: concurrent swaps — half of them injected to fail — never
// tear a snapshot. Every (version, query) pair seen by any client maps
// to exactly one estimate, and failed rebuilds leave serving intact.
TEST_F(ChaosTest, FaultySwapsNeverTearServedAnswers) {
  SnapshotCatalog catalog;
  catalog.Publish(Corpus().BuildCst(0.02), "v1");
  ASSERT_TRUE(util::FailpointRegistry::Get()
                  .Configure("snapshot/rebuild", "error:0.5")
                  .ok());
  ServiceOptions options;
  options.num_workers = 2;
  EstimateService service(&catalog, options);

  const uint64_t rebuild_failures_before =
      CounterValue(obs::Counter::kRebuildFailures);
  std::atomic<bool> stop{false};
  std::mutex mutex;
  // (query index, version) -> set of distinct estimates served.
  std::map<std::pair<size_t, uint64_t>, std::set<double>> answers;
  std::atomic<size_t> answered{0};

  std::vector<std::thread> clients;
  for (size_t t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t query = i++ % std::size(kQueries);
        EstimateResponse response =
            service.SubmitAndWait(MakeRequest(kQueries[query]));
        if (!response.status.ok()) continue;
        answered.fetch_add(1);
        std::lock_guard<std::mutex> lock(mutex);
        answers[{query, response.snapshot_version}].insert(response.estimate);
      }
    });
  }

  // Drive rebuilds as fast as they land, alternating space fractions so
  // consecutive versions really differ; the failpoint fails ~half.
  size_t rebuilds = 0, rebuild_errors = 0;
  for (int round = 0; round < 12; ++round) {
    const double fraction = (round % 2 == 0) ? 0.05 : 0.02;
    if (!catalog.BeginRebuild(
            [fraction] {
              return Result<cst::Cst>(Corpus().BuildCst(fraction));
            },
            "chaos swap")) {
      continue;
    }
    ++rebuilds;
    if (!catalog.WaitForRebuild().ok()) ++rebuild_errors;
    // The catalog must always be serving something, failed or not.
    ASSERT_NE(catalog.Current(), nullptr);
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  service.Shutdown(/*drain=*/true);

  EXPECT_GT(rebuilds, 0u);
  EXPECT_GT(rebuild_errors, 0u);  // the 50% schedule must have fired
  EXPECT_LT(rebuild_errors, rebuilds);  // ... and some rebuilds landed
  EXPECT_GE(CounterValue(obs::Counter::kRebuildFailures),
            rebuild_failures_before + rebuild_errors);
  EXPECT_GT(answered.load(), 0u);
  // The torn-snapshot check: one estimate per (query, version), ever.
  for (const auto& [key, estimates] : answers) {
    EXPECT_EQ(estimates.size(), 1u)
        << "query " << key.first << " @ v" << key.second << " served "
        << estimates.size() << " distinct estimates";
  }
}

// Invariant 3 (client side): RetryPolicy rides out a 10% injected
// fault rate with >= 90% goodput — the bench_serve acceptance bar, held
// as a regression test at test-suite scale.
TEST_F(ChaosTest, RetryRidesOutTransientFaultsWithHighGoodput) {
  SnapshotCatalog catalog;
  catalog.Publish(Corpus().BuildCst(0.02), "v1");
  ASSERT_TRUE(util::FailpointRegistry::Get()
                  .Configure("serve/estimate", "error:0.1")
                  .ok());
  ServiceOptions options;
  options.num_workers = 2;
  EstimateService service(&catalog, options);

  RetryOptions ropt;
  ropt.base_backoff = milliseconds(1);
  ropt.max_backoff = milliseconds(4);
  RetryPolicy policy(ropt);

  constexpr size_t kRequests = 400;
  size_t ok = 0, gave_up = 0, retries = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    const char* text = kQueries[i % std::size(kQueries)];
    EstimateResponse response;
    const auto attempt = [&] {
      response = service.SubmitAndWait(MakeRequest(text));
      return AttemptResult{response.status, response.retry_after};
    };
    retries += RetryLoop(&policy,
                         std::chrono::steady_clock::time_point::max(), attempt);
    ++(response.status.ok() ? ok : gave_up);
  }
  EXPECT_EQ(ok + gave_up, kRequests);
  EXPECT_GT(retries, 0u);
  EXPECT_GE(static_cast<double>(ok), 0.9 * kRequests)
      << ok << "/" << kRequests << " after " << retries << " retries";
}

// Brown-out lifecycle under a burst: shed with a hint while drowning,
// recover once the queue drains and the pressure stays away.
TEST_F(ChaosTest, BrownoutShedsUnderBurstThenRecovers) {
  SnapshotCatalog catalog;
  catalog.Publish(Corpus().BuildCst(0.02), "v1");
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 4;
  options.health.quiet_period = milliseconds(25);
  options.dequeue_hook = [] { std::this_thread::sleep_for(milliseconds(1)); };
  EstimateService service(&catalog, options);

  const uint64_t sheds_before = CounterValue(obs::Counter::kBrownoutSheds);
  std::vector<std::future<EstimateResponse>> in_flight;
  in_flight.reserve(200);
  for (size_t i = 0; i < 200; ++i) {
    in_flight.push_back(
        service.Submit(MakeRequest(kQueries[i % std::size(kQueries)])));
  }
  size_t shed = 0;
  for (auto& f : in_flight) {
    EstimateResponse response = f.get();  // exactly-once, burst-wide
    if (!response.status.ok() &&
        response.status.message().find("browning out") != std::string::npos) {
      ++shed;
      EXPECT_GT(response.retry_after.count(), 0);
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GE(CounterValue(obs::Counter::kBrownoutSheds), sheds_before + shed);

  // With the burst done and the queue drained, the brown-out must lift
  // within a few quiet periods.
  bool recovered = false;
  for (int i = 0; i < 100 && !recovered; ++i) {
    std::this_thread::sleep_for(milliseconds(10));
    recovered = service.SubmitAndWait(MakeRequest("article.title"))
                    .status.ok();
  }
  EXPECT_TRUE(recovered);
}

// Tenant-starvation invariant: one tenant floods at ~10x its rate
// quota with execution faults firing, while two well-behaved tenants
// run closed-loop. The flood must be shed with structured throttles,
// the steady tenants must keep getting served (their weighted share of
// the queue and the workers), and every admitted request — flood
// included — resolves exactly once.
TEST_F(ChaosTest, FloodingTenantIsShedWhileOthersKeepTheirShare) {
  SnapshotCatalog catalog;
  catalog.Publish(Corpus().BuildCst(0.02), "v1");
  ServiceOptions options;
  options.num_workers = 1;  // one drain point: DRR order is the test
  // Capacity comfortably above the flood's worst-case instantaneous
  // hold (its token burst plus backlog), so a full-queue "overloaded"
  // can only mean the occupancy cap failed to contain the flood.
  options.queue_capacity = 32;
  // Keep the health brown-out out of the picture: this test is about
  // the tenant gate, not the load shedder.
  options.health.brownout_queue_fraction = 1.1;
  options.health.brownout_miss_rate = 1.1;
  options.tenants.overrides["flood"] = TenantQuota{/*rate=*/500,
                                                   /*burst=*/4,
                                                   /*weight=*/1};
  options.tenants.overrides["s1"] = TenantQuota{/*rate=*/0, /*burst=*/8,
                                                /*weight=*/3};
  options.tenants.overrides["s2"] = TenantQuota{/*rate=*/0, /*burst=*/8,
                                                /*weight=*/3};
  // A slow worker keeps the queue contended so fairness is exercised,
  // not just admission.
  options.dequeue_hook = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  EstimateService service(&catalog, options);
  ASSERT_TRUE(util::FailpointRegistry::Get()
                  .Configure("serve/estimate", "error:0.05")
                  .ok());

  constexpr int kSteadyRequests = 150;
  std::atomic<int> steady_done{0};
  std::atomic<int> steady_ok[2] = {{0}, {0}};
  std::atomic<bool> steady_overloaded{false};
  std::vector<std::thread> steady;
  for (int t = 0; t < 2; ++t) {
    steady.emplace_back([&, t] {
      const char* tenant = t == 0 ? "s1" : "s2";
      for (int i = 0; i < kSteadyRequests; ++i) {
        EstimateRequest request =
            MakeRequest(kQueries[i % std::size(kQueries)]);
        request.tenant = tenant;
        EstimateResponse response = service.SubmitAndWait(request);
        if (response.status.ok()) {
          steady_ok[t].fetch_add(1);
        } else if (response.status.message().find("overloaded") !=
                   std::string::npos) {
          // A closed-loop tenant holding at most one queued request
          // can only see "queue full" if the flood ate the shared
          // capacity — exactly what the occupancy cap must prevent.
          steady_overloaded.store(true);
        }
      }
      steady_done.fetch_add(1);
    });
  }

  // The flood: open-loop, ~10x its 500/s token rate, for as long as
  // the steady tenants are running.
  std::vector<std::future<EstimateResponse>> flood;
  flood.reserve(20000);
  std::thread flooder([&] {
    while (steady_done.load() < 2 && flood.size() < 20000) {
      EstimateRequest request =
          MakeRequest(kQueries[flood.size() % std::size(kQueries)]);
      request.tenant = "flood";
      flood.push_back(service.Submit(std::move(request)));
      if (flood.size() % 64 == 0) {
        std::this_thread::sleep_for(milliseconds(1));  // ~10x 500/s
      }
    }
  });
  for (std::thread& t : steady) t.join();
  flooder.join();

  // Exactly-once: every flood future resolves, OK or structured error.
  size_t flood_ok = 0;
  size_t flood_throttled = 0;
  for (auto& f : flood) {
    EstimateResponse response = f.get();
    if (response.status.ok()) {
      ++flood_ok;
    } else if (response.status.message().find("throttled") !=
               std::string::npos) {
      ++flood_throttled;
      EXPECT_GT(response.retry_after.count(), 0);
    }
  }
  service.Shutdown(/*drain=*/true);

  // The flood was shed — most of it — with structured throttles.
  EXPECT_GT(flood_throttled, 0u);
  EXPECT_GT(flood.size(), flood_ok + flood.size() / 2);
  // The steady tenants were never squeezed out of the shared queue and
  // kept real goodput (only the injected 5% fault rate bites).
  EXPECT_FALSE(steady_overloaded.load());
  EXPECT_GE(steady_ok[0].load(), kSteadyRequests * 3 / 4);
  EXPECT_GE(steady_ok[1].load(), kSteadyRequests * 3 / 4);

  // The lifetime stats verb data agrees.
  uint64_t stats_throttled = 0;
  for (const TenantStats& tenant : service.tenant_stats()) {
    if (tenant.tenant == "flood") stats_throttled = tenant.throttled;
  }
  EXPECT_EQ(stats_throttled, flood_throttled);
}

}  // namespace
}  // namespace twig::serve
