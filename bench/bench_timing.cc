// Section 6.5 timings, as google-benchmark micro-benchmarks:
// construction (path suffix tree, CST at 1% space) and per-query
// estimation latency for each algorithm, plus the page checksum the
// paged path runs on every buffer-pool miss. The paper reports < 10 min
// construction for 50 MB / Pentium II and ~1 ms per estimate; on
// modern hardware both should be far faster at our scaled size.

#include <benchmark/benchmark.h>

#include "core/estimator.h"
#include "cst/cst.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page.h"
#include "suffix/path_suffix_tree.h"
#include "workload/workload.h"
#include "xml/xml.h"

namespace {

using namespace twig;

constexpr size_t kDataBytes = 2 * 1024 * 1024;

const tree::Tree& SharedData() {
  static tree::Tree data = [] {
    data::DblpOptions options;
    options.target_bytes = kDataBytes;
    return data::GenerateDblp(options);
  }();
  return data;
}

const suffix::PathSuffixTree& SharedPst() {
  static suffix::PathSuffixTree pst =
      suffix::PathSuffixTree::Build(SharedData());
  return pst;
}

const cst::Cst& SharedCst() {
  static cst::Cst summary = [] {
    cst::CstOptions options;
    options.space_budget_bytes = xml::XmlByteSize(SharedData()) / 100;
    return cst::Cst::Build(SharedData(), SharedPst(), options);
  }();
  return summary;
}

const workload::Workload& SharedWorkload() {
  static workload::Workload wl = [] {
    workload::WorkloadOptions options;
    options.num_queries = 200;
    options.compute_true_counts = false;
    return workload::GeneratePositive(SharedData(), options);
  }();
  return wl;
}

void BM_BuildPathSuffixTree(benchmark::State& state) {
  const tree::Tree& data = SharedData();
  for (auto _ : state) {
    auto pst = suffix::PathSuffixTree::Build(data);
    benchmark::DoNotOptimize(pst.node_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDataBytes));
}
BENCHMARK(BM_BuildPathSuffixTree)->Unit(benchmark::kMillisecond);

void BM_BuildCstAtOnePercent(benchmark::State& state) {
  const tree::Tree& data = SharedData();
  const auto& pst = SharedPst();
  cst::CstOptions options;
  options.space_budget_bytes = xml::XmlByteSize(data) / 100;
  for (auto _ : state) {
    auto summary = cst::Cst::Build(data, pst, options);
    benchmark::DoNotOptimize(summary.node_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDataBytes));
}
BENCHMARK(BM_BuildCstAtOnePercent)->Unit(benchmark::kMillisecond);

void BM_Estimate(benchmark::State& state) {
  const auto algorithm = static_cast<core::Algorithm>(state.range(0));
  const auto& summary = SharedCst();
  const auto& wl = SharedWorkload();
  core::TwigEstimator estimator(&summary);
  size_t i = 0;
  for (auto _ : state) {
    const double est =
        estimator.Estimate(wl[i % wl.size()].twig, algorithm);
    benchmark::DoNotOptimize(est);
    ++i;
  }
  state.SetLabel(core::AlgorithmName(algorithm));
}
BENCHMARK(BM_Estimate)
    ->DenseRange(0, 5, 1)
    ->Unit(benchmark::kMicrosecond);

// Same loop as BM_Estimate/MSH but with an explain trace attached, to
// quantify the cost of tracing (trace-off estimation must stay within
// ~2% of a build without obs wiring; trace-on pays for the string
// rendering and is expected to be several times slower).
void BM_EstimateTraced(benchmark::State& state) {
  const auto algorithm = static_cast<core::Algorithm>(state.range(0));
  const auto& summary = SharedCst();
  const auto& wl = SharedWorkload();
  core::TwigEstimator estimator(&summary);
  obs::Trace trace;
  core::EstimateOptions options;
  options.trace = &trace;
  size_t i = 0;
  for (auto _ : state) {
    const double est =
        estimator.Estimate(wl[i % wl.size()].twig, algorithm, options);
    benchmark::DoNotOptimize(est);
    benchmark::DoNotOptimize(trace.pieces.data());
    ++i;
  }
  state.SetLabel(std::string(core::AlgorithmName(algorithm)) + " traced");
}
BENCHMARK(BM_EstimateTraced)
    ->Arg(static_cast<int>(core::Algorithm::kMsh))
    ->Unit(benchmark::kMicrosecond);

void BM_EstimateBatch(benchmark::State& state) {
  const size_t num_threads = static_cast<size_t>(state.range(0));
  const auto& summary = SharedCst();
  const auto& wl = SharedWorkload();
  core::TwigEstimator estimator(&summary);
  core::BatchOptions options;
  options.num_threads = num_threads;
  for (auto _ : state) {
    stats::BatchStats batch_stats;
    const auto estimates =
        estimator.EstimateBatch(wl, core::Algorithm::kMsh, options,
                                &batch_stats);
    benchmark::DoNotOptimize(estimates.data());
    state.counters["qps"] = batch_stats.throughput_qps();
    const auto delta = [&](obs::Counter c) {
      return static_cast<double>(
          batch_stats.counter_deltas[static_cast<size_t>(c)]);
    };
    state.counters["cst_lookups"] =
        delta(obs::Counter::kCstSubpathLookups);
    state.counters["sethash_ix"] =
        delta(obs::Counter::kSethashIntersections);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wl.size()));
  state.SetLabel("MSH x" + std::to_string(num_threads) + " threads");
}
BENCHMARK(BM_EstimateBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ExactMatchCount(benchmark::State& state) {
  const auto& data = SharedData();
  const auto& wl = SharedWorkload();
  size_t i = 0;
  for (auto _ : state) {
    const auto counts =
        match::CountTwigMatches(data, wl[i % wl.size()].twig).value();
    benchmark::DoNotOptimize(counts.occurrence);
    ++i;
  }
}
BENCHMARK(BM_ExactMatchCount)->Unit(benchmark::kMillisecond);

void BM_SetHashIntersection(benchmark::State& state) {
  const size_t length = static_cast<size_t>(state.range(0));
  sethash::SetHashFamily family(length, 99);
  std::vector<uint64_t> a, b;
  for (uint64_t i = 0; i < 5000; ++i) {
    if (i % 2 == 0) a.push_back(i);
    if (i % 3 == 0) b.push_back(i);
  }
  const sethash::Signature sa = family.SignatureOf(a);
  const sethash::Signature sb = family.SignatureOf(b);
  for (auto _ : state) {
    auto est = sethash::EstimateIntersectionSize(
        {{&sa, static_cast<double>(a.size())},
         {&sb, static_cast<double>(b.size())}});
    benchmark::DoNotOptimize(est.size);
  }
  state.SetLabel("L=" + std::to_string(length));
}
BENCHMARK(BM_SetHashIntersection)->Arg(32)->Arg(64)->Arg(256);

// The per-page validation cost every buffer-pool miss pays on the
// paged path (storage::ValidatePage), at a 4 KiB and a 64 KiB page.
void BM_PageChecksum(benchmark::State& state) {
  const size_t page_size = static_cast<size_t>(state.range(0));
  std::string page(page_size, '\0');
  for (size_t i = 0; i < page_size; ++i) {
    page[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::PageChecksum(page.data(), page_size));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page_size));
}
BENCHMARK(BM_PageChecksum)->Arg(4096)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
