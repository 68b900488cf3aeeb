#include <gtest/gtest.h>

#include "core/canonical.h"
#include "core/estimator.h"
#include "cst/cst.h"
#include "match/matcher.h"
#include "query/twig.h"
#include "test_trees.h"

namespace twig::core {
namespace {

using cst::Cst;
using cst::CstOptions;
using query::ParseTwig;
using suffix::PathSuffixTree;
using tree::Tree;

class EstimatorTest : public ::testing::Test {
 protected:
  EstimatorTest() : data_(testutil::FigureOneTree()) {
    auto pst = PathSuffixTree::Build(data_);
    CstOptions options;
    options.prune_threshold = 1;  // unpruned: estimates should be sharp
    cst_ = Cst::Build(data_, pst, options);
  }

  double Estimate(const char* twig_text, Algorithm algorithm,
                  CountSemantics semantics = CountSemantics::kOccurrence) {
    auto twig = ParseTwig(twig_text);
    EXPECT_TRUE(twig.ok());
    EstimateOptions options;
    options.semantics = semantics;
    return TwigEstimator(&cst_).Estimate(*twig, algorithm, options);
  }

  double Truth(const char* twig_text) {
    auto twig = ParseTwig(twig_text);
    EXPECT_TRUE(twig.ok());
    return match::CountTwigMatches(data_, *twig).value().occurrence;
  }

  Tree data_;
  Cst cst_;
};

TEST_F(EstimatorTest, SingleSubpathExactWithFullCst) {
  for (const char* q : {"book.author", "book.year=\"Y1\"", "author=\"A1\""}) {
    EXPECT_DOUBLE_EQ(Estimate(q, Algorithm::kMo), Truth(q)) << q;
    EXPECT_DOUBLE_EQ(Estimate(q, Algorithm::kMsh), Truth(q)) << q;
  }
}

TEST_F(EstimatorTest, SetHashAlgorithmsNailCorrelatedTwig) {
  // All books have both author and year: strong correlation that the
  // independence baselines miss.
  const char* q = "book(author=\"A1\", year=\"Y1\")";
  const double truth = Truth(q);  // 3
  EXPECT_NEAR(Estimate(q, Algorithm::kMosh), truth, 0.6);
  EXPECT_NEAR(Estimate(q, Algorithm::kMsh), truth, 0.6);
  EXPECT_LT(Estimate(q, Algorithm::kGreedy), truth);
}

TEST_F(EstimatorTest, PresenceVsOccurrence) {
  const char* q = "book.author";
  EXPECT_DOUBLE_EQ(Estimate(q, Algorithm::kMo, CountSemantics::kPresence),
                   3.0);
  EXPECT_DOUBLE_EQ(Estimate(q, Algorithm::kMo, CountSemantics::kOccurrence),
                   6.0);
}

TEST_F(EstimatorTest, SectionFiveExample) {
  // book(author, year="Y1"): presence 3, occurrence 6 (the paper's
  // estimate was 2.9 / 5.8; the unpruned CST is exact).
  const char* q = "book(author, year=\"Y1\")";
  EXPECT_NEAR(Estimate(q, Algorithm::kMosh, CountSemantics::kPresence), 3.0,
              0.3);
  EXPECT_NEAR(Estimate(q, Algorithm::kMosh, CountSemantics::kOccurrence), 6.0,
              0.6);
}

TEST_F(EstimatorTest, LeafIgnoresPathContext) {
  // Leaf estimates book.year."Y1" purely from the string "Y1".
  const double leaf = Estimate("book.year=\"Y1\"", Algorithm::kLeaf);
  const double moved = Estimate("book.author=\"Y1\"", Algorithm::kLeaf);
  EXPECT_DOUBLE_EQ(leaf, moved);  // same leaf string, same estimate
  const double mo = Estimate("book.author=\"Y1\"", Algorithm::kMo);
  EXPECT_NE(leaf, mo);
}

TEST_F(EstimatorTest, UnknownTagEstimatesNearZero) {
  const double est = Estimate("journal=\"X\"", Algorithm::kMo);
  EXPECT_LT(est, 1.0);
}

TEST_F(EstimatorTest, EstimatesAreNonNegative) {
  for (Algorithm a : kAllAlgorithms) {
    EXPECT_GE(Estimate("book(author=\"A9\", title=\"zz\")", a), 0.0);
  }
}

TEST_F(EstimatorTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kLeaf), "Leaf");
  EXPECT_STREQ(AlgorithmName(Algorithm::kGreedy), "Greedy");
  EXPECT_STREQ(AlgorithmName(Algorithm::kMo), "MO");
  EXPECT_STREQ(AlgorithmName(Algorithm::kMosh), "MOSH");
  EXPECT_STREQ(AlgorithmName(Algorithm::kPmosh), "PMOSH");
  EXPECT_STREQ(AlgorithmName(Algorithm::kMsh), "MSH");
}

TEST_F(EstimatorTest, FingerprintsStableAndAlgorithmSensitive) {
  auto twig = ParseTwig("book(author=\"A1\", year=\"Y1\")");
  ASSERT_TRUE(twig.ok());
  TwigEstimator estimator(&cst_);
  const uint64_t mosh =
      estimator.DecompositionFingerprint(*twig, Algorithm::kMosh);
  EXPECT_EQ(mosh, estimator.DecompositionFingerprint(*twig, Algorithm::kMosh));
  EXPECT_NE(mosh, estimator.DecompositionFingerprint(*twig, Algorithm::kMo));
}

/// Property sweep: on an unpruned CST, MO and the set-hash algorithms
/// must reproduce exact counts for every single-path query, under both
/// semantics.
struct TrivialCase {
  const char* query;
  double presence;
  double occurrence;
};

// Prints the query text. Without this gtest prints the raw bytes,
// which include the address of `query`; ctest's discovered test names
// embed the printed value, so they would change with every build.
void PrintTo(const TrivialCase& c, std::ostream* os) { *os << c.query; }

class TrivialExactness : public ::testing::TestWithParam<TrivialCase> {};

TEST_P(TrivialExactness, MatchesTruth) {
  Tree data = testutil::FigureOneTree();
  auto pst = PathSuffixTree::Build(data);
  CstOptions options;
  options.prune_threshold = 1;
  Cst cst = Cst::Build(data, pst, options);
  TwigEstimator estimator(&cst);
  auto twig = ParseTwig(GetParam().query);
  ASSERT_TRUE(twig.ok());
  const match::TwigCounts truth =
      match::CountTwigMatches(data, *twig).value();
  EXPECT_DOUBLE_EQ(truth.presence, GetParam().presence);
  EXPECT_DOUBLE_EQ(truth.occurrence, GetParam().occurrence);
  for (Algorithm a : {Algorithm::kMo, Algorithm::kMosh, Algorithm::kMsh}) {
    EstimateOptions popt;
    popt.semantics = CountSemantics::kPresence;
    EXPECT_DOUBLE_EQ(estimator.Estimate(*twig, a, popt), truth.presence)
        << GetParam().query;
    EstimateOptions oopt;
    oopt.semantics = CountSemantics::kOccurrence;
    EXPECT_DOUBLE_EQ(estimator.Estimate(*twig, a, oopt), truth.occurrence)
        << GetParam().query;
  }
}

TEST_F(EstimatorTest, BatchMatchesSequentialBitForBit) {
  workload::Workload wl;
  const char* texts[] = {
      "book.author",
      "book(author=\"A1\", year=\"Y1\")",
      "dblp.book(author, year)",
      "book(author=\"A\", title, year=\"Y\")",
      "author=\"A2\"",
      "book.title=\"T3\"",
  };
  for (int copy = 0; copy < 7; ++copy) {
    for (const char* text : texts) {
      auto twig = ParseTwig(text);
      ASSERT_TRUE(twig.ok()) << text;
      workload::WorkloadQuery wq;
      wq.twig = *twig;
      wl.push_back(std::move(wq));
    }
  }

  TwigEstimator estimator(&cst_);
  for (Algorithm algorithm : kAllAlgorithms) {
    BatchOptions sequential;
    sequential.num_threads = 1;
    const auto expected = estimator.EstimateBatch(wl, algorithm, sequential);
    ASSERT_EQ(expected.size(), wl.size());
    for (size_t threads : {2u, 4u, 8u}) {
      BatchOptions parallel;
      parallel.num_threads = threads;
      stats::BatchStats batch_stats;
      const auto got =
          estimator.EstimateBatch(wl, algorithm, parallel, &batch_stats);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        // Exact equality: parallel runs must be bit-identical.
        EXPECT_EQ(got[i], expected[i])
            << AlgorithmName(algorithm) << " query " << i << " at "
            << threads << " threads";
      }
      EXPECT_EQ(batch_stats.num_threads, threads);
      EXPECT_EQ(batch_stats.total_queries(), wl.size());
      EXPECT_GT(batch_stats.wall_seconds, 0.0);
      EXPECT_GT(batch_stats.throughput_qps(), 0.0);
      EXPECT_GT(batch_stats.avg_latency_seconds(), 0.0);
    }
  }
}

TEST_F(EstimatorTest, BatchEmptyWorkload) {
  workload::Workload empty;
  TwigEstimator estimator(&cst_);
  for (size_t threads : {1u, 4u}) {
    BatchOptions options;
    options.num_threads = threads;
    stats::BatchStats batch_stats;
    const auto estimates = estimator.EstimateBatch(
        empty, Algorithm::kMsh, options, &batch_stats);
    EXPECT_TRUE(estimates.empty());
    EXPECT_EQ(batch_stats.num_threads, threads);
    EXPECT_EQ(batch_stats.total_queries(), 0u);
    EXPECT_DOUBLE_EQ(batch_stats.busy_seconds(), 0.0);
    EXPECT_DOUBLE_EQ(batch_stats.throughput_qps(), 0.0);
    EXPECT_DOUBLE_EQ(batch_stats.avg_latency_seconds(), 0.0);
  }
}

TEST_F(EstimatorTest, BatchMoreThreadsThanQueries) {
  workload::Workload wl;
  for (const char* text : {"book.author", "book.year=\"Y1\""}) {
    auto twig = ParseTwig(text);
    ASSERT_TRUE(twig.ok());
    workload::WorkloadQuery wq;
    wq.twig = *twig;
    wl.push_back(std::move(wq));
  }
  TwigEstimator estimator(&cst_);
  BatchOptions options;
  options.num_threads = 8;  // far more workers than queries
  stats::BatchStats batch_stats;
  const auto got =
      estimator.EstimateBatch(wl, Algorithm::kMo, options, &batch_stats);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0], Estimate("book.author", Algorithm::kMo));
  EXPECT_DOUBLE_EQ(got[1], Estimate("book.year=\"Y1\"", Algorithm::kMo));
  EXPECT_EQ(batch_stats.num_threads, 8u);
  EXPECT_EQ(batch_stats.queries_per_thread.size(), 8u);
  EXPECT_EQ(batch_stats.total_queries(), 2u);
}

TEST_F(EstimatorTest, BatchStatsPopulatedOnInlinePath) {
  // num_threads == 1 runs inline with no pool; stats must still be
  // filled, including the obs counter deltas (satisfied at minimum by
  // the kEstimates increments of this very batch).
  workload::Workload wl;
  auto twig = ParseTwig("book(author, year=\"Y1\")");
  ASSERT_TRUE(twig.ok());
  for (int i = 0; i < 3; ++i) {
    workload::WorkloadQuery wq;
    wq.twig = *twig;
    wl.push_back(std::move(wq));
  }
  TwigEstimator estimator(&cst_);
  stats::BatchStats batch_stats;
  const auto got = estimator.EstimateBatch(wl, Algorithm::kMsh, {},
                                           &batch_stats);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(batch_stats.num_threads, 1u);
  ASSERT_EQ(batch_stats.queries_per_thread.size(), 1u);
  EXPECT_EQ(batch_stats.queries_per_thread[0], 3u);
  EXPECT_GT(batch_stats.wall_seconds, 0.0);
  EXPECT_GE(batch_stats.wall_seconds, batch_stats.busy_seconds() * 0.5);
  EXPECT_GE(
      batch_stats.counter_deltas[static_cast<size_t>(
          obs::Counter::kEstimates)],
      3u);
  // The JSON rendering carries one key per counter.
  const std::string json = batch_stats.CounterDeltasJson();
  EXPECT_NE(json.find("\"estimates\""), std::string::npos);
  EXPECT_NE(json.find("\"cst_subpath_lookups\""), std::string::npos);
}

TEST_F(EstimatorTest, BatchIgnoresAttachedTrace) {
  workload::Workload wl;
  auto twig = ParseTwig("book(author, year=\"Y1\")");
  ASSERT_TRUE(twig.ok());
  for (int i = 0; i < 4; ++i) {
    workload::WorkloadQuery wq;
    wq.twig = *twig;
    wl.push_back(std::move(wq));
  }
  TwigEstimator estimator(&cst_);
  const auto expected = estimator.EstimateBatch(wl, Algorithm::kMsh);
  obs::Trace trace;
  trace.query = "sentinel";
  BatchOptions traced;
  traced.num_threads = 2;
  traced.estimate.trace = &trace;
  const auto got = estimator.EstimateBatch(wl, Algorithm::kMsh, traced);
  EXPECT_EQ(got, expected);               // estimates unaffected
  EXPECT_EQ(trace.query, "sentinel");     // sink never touched
  EXPECT_TRUE(trace.pieces.empty());
}

// ---------------------------------------------------------------------------
// Canonical query keys

TEST(CanonicalQueryTest, DifferentSpellingsShareOneKey) {
  auto loose = ParseTwig("  book ( author = \"Su\" , year ) ");
  auto tight = ParseTwig("book(author=\"Su\", year)");
  ASSERT_TRUE(loose.ok() && tight.ok());
  const CanonicalQueryKey a = CanonicalizeQuery(
      *loose, Algorithm::kMsh, CountSemantics::kOccurrence);
  const CanonicalQueryKey b = CanonicalizeQuery(
      *tight, Algorithm::kMsh, CountSemantics::kOccurrence);
  EXPECT_EQ(a.text, "book(author=\"Su\", year)");
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.fingerprint, 0u);
}

TEST(CanonicalQueryTest, AlgorithmAndSemanticsChangeTheFingerprint) {
  auto twig = ParseTwig("book.author");
  ASSERT_TRUE(twig.ok());
  const CanonicalQueryKey msh_occ = CanonicalizeQuery(
      *twig, Algorithm::kMsh, CountSemantics::kOccurrence);
  const CanonicalQueryKey mo_occ = CanonicalizeQuery(
      *twig, Algorithm::kMo, CountSemantics::kOccurrence);
  const CanonicalQueryKey msh_pres = CanonicalizeQuery(
      *twig, Algorithm::kMsh, CountSemantics::kPresence);
  // Same question text, but the answer depends on (algorithm,
  // semantics), so the identities must differ.
  EXPECT_EQ(msh_occ.text, mo_occ.text);
  EXPECT_NE(msh_occ.fingerprint, mo_occ.fingerprint);
  EXPECT_NE(msh_occ.fingerprint, msh_pres.fingerprint);
  EXPECT_NE(mo_occ.fingerprint, msh_pres.fingerprint);
}

TEST(CanonicalQueryTest, FingerprintMatchesDirectTextFingerprint) {
  auto twig = ParseTwig("article(author, year=\"19\")");
  ASSERT_TRUE(twig.ok());
  const CanonicalQueryKey key = CanonicalizeQuery(
      *twig, Algorithm::kGreedy, CountSemantics::kOccurrence);
  EXPECT_EQ(key.fingerprint,
            CanonicalQueryFingerprint(key.text, Algorithm::kGreedy,
                                      CountSemantics::kOccurrence));
}

TEST(CanonicalQueryTest, DistinctQueriesGetDistinctKeys) {
  const char* texts[] = {"a.b", "a.c", "a(b, c)", "a(b, c=\"x\")", "b.a"};
  std::vector<CanonicalQueryKey> keys;
  for (const char* text : texts) {
    auto twig = ParseTwig(text);
    ASSERT_TRUE(twig.ok()) << text;
    keys.push_back(CanonicalizeQuery(*twig, Algorithm::kMsh,
                                     CountSemantics::kOccurrence));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i].text, keys[j].text);
      EXPECT_NE(keys[i].fingerprint, keys[j].fingerprint);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FigureOneQueries, TrivialExactness,
    ::testing::Values(TrivialCase{"dblp.book.author", 1, 6},
                      TrivialCase{"book.author=\"A1\"", 3, 3},
                      TrivialCase{"book.author=\"A2\"", 2, 2},
                      TrivialCase{"book.title=\"T3\"", 1, 1},
                      TrivialCase{"book.year=\"Y1\"", 3, 3},
                      TrivialCase{"author=\"A\"", 6, 6},
                      TrivialCase{"year", 3, 3}));

}  // namespace
}  // namespace twig::core
