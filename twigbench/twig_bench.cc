// The repository benchmark: closed-loop workloads against the twig-count
// estimator and its server, with every answer checked bit for bit.
//
//   twig_bench --workload=direct|paged --seed=N --seconds=S
//              --trace=0|1 [--corpus-bytes=N] [--scratch-dir=DIR]
//              [--plant-wrong-reference]
//
// With --trace=0 it prints the end-to-end metrics, with --trace=1 the
// per-layer metrics; human-readable report lines come first and the
// last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is nonzero when any answer differs from its reference
// or any operation failed. README.md documents the workloads.
//
// Layers are measured from outside, by timing calls into their public
// functions and through the decorators in probes.h; the library is not
// modified or instrumented for the benchmark.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <malloc.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdarg>
#include <deque>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/combine.h"
#include "core/estimator.h"
#include "core/expanded_query.h"
#include "core/parse.h"
#include "core/pieces.h"
#include "cst/cst.h"
#include "cst/paged_cst.h"
#include "exp/harness.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "probes.h"
#include "query/twig.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/tcp.h"
#include "serve/wire.h"
#include "storage/buffer_manager.h"
#include "storage/page_source.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace twigbench {
namespace {

using namespace twig;
using core::Algorithm;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed inputs. README.md lists the same values; keep the two in sync.

/// One corpus for every workload and seed, so the accuracy guard and the
/// summaries are comparable across runs; --seed varies the twig streams.
constexpr uint64_t kCorpusSeed = 42;
/// The accuracy set: exact counts of these twigs are the ground truth
/// for abs_rel_error_mean. Seed-independent, so the metric changes only
/// when the estimator's answers change.
constexpr uint64_t kAccuracySeed = 2001;
constexpr size_t kAccuracyPositive = 60;
constexpr size_t kAccuracyAxes = 20;
/// GenerateAxes rewrite probabilities (wildcard tag, `//` edge).
constexpr double kWildcardProbability = 0.2;
constexpr double kDescendantProbability = 0.2;

/// direct: a 60/25/15 positive/axes/negative pool.
constexpr size_t kMixPositive = 240;
constexpr size_t kMixAxes = 100;
constexpr size_t kMixNegative = 60;
/// paged: uniform positive twigs over the full CST, 10% buffer pool.
constexpr size_t kPagedPool = 400;
constexpr double kPagedPoolShare = 0.10;
/// The serve phase of the traced direct run: Zipf over distinct positive
/// twigs, a result cache smaller than the pool.
constexpr size_t kWirePool = 8192;
constexpr double kWireZipf = 1.1;
constexpr size_t kWireConnections = 4;
constexpr size_t kWireWorkers = 2;
/// twig_serve starts 4 epoll threads. Each spins while it waits for a
/// reply and then falls back to 1 ms ticks; 4 of them spinning beside 2
/// workers on a 4-CPU machine preempt the workers, and p99 swings
/// between ~150 us and ~1.2 ms from run to run. 2 makes that rarer.
constexpr size_t kWireEpollThreads = 2;
constexpr size_t kWireCacheEntries = 1024;
constexpr uint64_t kSwapEvery = 2000;
/// EstimateBatch in the direct traced run: batches from the mix pool.
constexpr size_t kBatchSize = 200;
constexpr size_t kBatchThreads = 2;
constexpr size_t kBatchCount = 16;

constexpr double kSmallSpace = 0.01;
constexpr double kLargeSpace = 0.02;
constexpr Algorithm kAlgorithm = Algorithm::kMsh;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// The measured window splits into rounds; timing metrics are the
/// median of the per-round values.
constexpr int kRounds = 5;
/// Spans kept by one traced estimator phase (32 bytes each).
constexpr size_t kSpanCapacity = 1 << 20;

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t corpus_bytes = exp::kDefaultDblpBytes;
  std::string scratch_dir = ".";
  bool plant_wrong_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string value(eq == std::string_view::npos ? ""
                                                         : arg.substr(eq + 1));
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (key == "--corpus-bytes") {
      args->corpus_bytes = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--scratch-dir") {
      args->scratch_dir = value;
    } else if (key == "--plant-wrong-reference") {
      args->plant_wrong_reference = true;
      continue;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
    if (value.empty() || (end != nullptr && *end != '\0')) {
      std::fprintf(stderr, "bad value for %.*s\n",
                   static_cast<int>(key.size()), key.data());
      return false;
    }
  }
  const std::string& w = args->workload;
  if (w != "direct" && w != "paged") {
    std::fprintf(stderr, "--workload must be direct or paged\n");
    return false;
  }
  if (!(args->seconds > 0) || args->corpus_bytes == 0) {
    std::fprintf(stderr, "--seconds and --corpus-bytes must be positive\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Statistics and the report

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Exact nearest-rank percentile of raw samples; `beyond` receives the
/// number of samples ranked above it.
template <typename T>
double Percentile(std::vector<T>& values, double q, size_t* beyond) {
  if (values.empty()) {
    if (beyond != nullptr) *beyond = 0;
    return 0;
  }
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  if (beyond != nullptr) *beyond = n - rank;
  return values[rank - 1];
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(note)});
  }
  void Info(const std::string& line) { std::printf("info %s\n", line.c_str()); }

  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-34s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("correct");
    w.Bool(correct);
    w.Key("attempted");
    w.Uint(attempted);
    w.Key("failed");
    w.Uint(failed);
    w.Key("metrics");
    w.BeginObject();
    for (const Metric& m : metrics_) {
      w.Key(m.name);
      w.BeginObject();
      w.Key("value");
      w.Double(std::isfinite(m.value) ? m.value : 0.0);
      w.Key("unit");
      w.String(m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

/// A ratio with its base, for the report.
std::string RatioNote(uint64_t numerator, uint64_t base, const char* what) {
  return Format("(%llu of %llu %s)", static_cast<unsigned long long>(numerator),
                static_cast<unsigned long long>(base), what);
}

double Ratio(double numerator, double base) {
  return base > 0 ? numerator / base : 0;
}

// ---------------------------------------------------------------------------
// The correctness gate

/// Counts every operation and compares every answer with its reference
/// bit for bit. Thread-safe.
class Gate {
 public:
  void Attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& why) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    Note(why);
  }
  /// Counts one estimate and checks it against its reference.
  void Check(const Result<double>& got, double want) {
    Attempt();
    Compare(got, want);
  }
  /// Checks an estimate already counted by Attempt.
  void Compare(const Result<double>& got, double want) {
    if (!got.ok()) {
      Fail("estimate failed: " + got.status().ToString());
    } else if (std::bit_cast<uint64_t>(*got) != std::bit_cast<uint64_t>(want)) {
      mismatches_.fetch_add(1, std::memory_order_relaxed);
      failed_.fetch_add(1, std::memory_order_relaxed);
      Note(Format("mismatch: got %.17g, reference %.17g", *got, want));
    }
  }

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  uint64_t mismatches() const { return mismatches_.load(); }

 private:
  void Note(const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (notes_++ < 5) std::fprintf(stderr, "gate: %s\n", why.c_str());
  }

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> mismatches_{0};
  std::mutex mutex_;
  int notes_ = 0;  // guarded by mutex_
};

// ---------------------------------------------------------------------------
// Inputs

exp::Dataset MakeCorpus(const Args& args) {
  return exp::MakeDataset(exp::DatasetKind::kDblp, args.corpus_bytes,
                          kCorpusSeed);
}

workload::WorkloadOptions TwigOptions(uint64_t seed, size_t count,
                                      bool truth) {
  workload::WorkloadOptions options;
  options.seed = seed;
  options.num_queries = count;
  options.compute_true_counts = truth;
  options.wildcard_probability = kWildcardProbability;
  options.descendant_probability = kDescendantProbability;
  return options;
}

/// A twig pool with one reference estimate per summary.
struct Pool {
  std::vector<query::Twig> twigs;
  /// refs[s][i]: the estimate of twigs[i] on summary s.
  std::vector<std::vector<double>> refs;
  std::vector<double> truth;  // occurrence counts, when generated
};

/// Drops duplicate twigs (by canonical text) and keeps the rest in order.
void AppendDistinct(const workload::Workload& from,
                    std::unordered_set<std::string>* seen, Pool* pool) {
  for (const workload::WorkloadQuery& q : from) {
    if (seen->insert(query::FormatTwig(q.twig)).second) {
      pool->twigs.push_back(q.twig);
      pool->truth.push_back(q.truth.occurrence);
    }
  }
}

/// Computes the reference estimates on every summary. Twigs any summary
/// refuses with a structured error leave the pool (reported), so the
/// timed loops run only operations that succeed.
void ComputeReferences(const std::vector<const cst::CstView*>& summaries,
                       Pool* pool, Report* report, const char* what) {
  Pool kept;
  kept.refs.resize(summaries.size());
  size_t refused = 0;
  for (size_t i = 0; i < pool->twigs.size(); ++i) {
    std::vector<double> refs;
    for (const cst::CstView* summary : summaries) {
      const Result<double> r =
          core::TwigEstimator(summary).TryEstimate(pool->twigs[i], kAlgorithm);
      if (!r.ok()) break;
      refs.push_back(*r);
    }
    if (refs.size() != summaries.size()) {
      ++refused;
      continue;
    }
    kept.twigs.push_back(std::move(pool->twigs[i]));
    kept.truth.push_back(pool->truth[i]);
    for (size_t s = 0; s < refs.size(); ++s) kept.refs[s].push_back(refs[s]);
  }
  *pool = std::move(kept);
  report->Info(Format("%s pool: %zu distinct twigs, %zu refused by the "
                      "estimator and left out",
                      what, pool->twigs.size(), refused));
}

/// The direct mix: positive, axes and negative twigs.
Pool MakeMixPool(const exp::Dataset& corpus, uint64_t seed) {
  Pool pool;
  std::unordered_set<std::string> seen;
  AppendDistinct(workload::GeneratePositive(
                     corpus.tree, TwigOptions(seed * 3 + 1, kMixPositive,
                                              false)),
                 &seen, &pool);
  AppendDistinct(
      workload::GenerateAxes(corpus.tree,
                             TwigOptions(seed * 3 + 2, kMixAxes, false)),
      &seen, &pool);
  AppendDistinct(workload::GenerateNegative(
                     corpus.tree, TwigOptions(seed * 3 + 3, kMixNegative,
                                              true)),
                 &seen, &pool);
  return pool;
}

Pool MakePositivePool(const exp::Dataset& corpus, uint64_t seed,
                      size_t count) {
  Pool pool;
  std::unordered_set<std::string> seen;
  // Ask for a few more than needed: sampled twigs can repeat.
  AppendDistinct(workload::GeneratePositive(
                     corpus.tree,
                     TwigOptions(seed * 3 + 1, count + count / 8, false)),
                 &seen, &pool);
  if (pool.twigs.size() > count) {
    pool.twigs.resize(count);
    pool.truth.resize(count);
  }
  return pool;
}

/// A stream of pool indices: independent shuffles of the pool, back to
/// back, so every twig appears equally often.
std::vector<uint32_t> ShuffledStream(size_t pool_size, uint64_t seed,
                                     size_t copies) {
  std::vector<uint32_t> order(pool_size);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  std::vector<uint32_t> stream;
  for (size_t c = 0; c < copies; ++c) {
    for (size_t i = pool_size; i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    stream.insert(stream.end(), order.begin(), order.end());
  }
  return stream;
}

/// Mean |estimate − truth| / truth over the accuracy set, on `summary`.
double AccuracyError(const exp::Dataset& corpus,
                     const cst::CstView& summary, Report* report) {
  Pool set;
  std::unordered_set<std::string> seen;
  AppendDistinct(workload::GeneratePositive(
                     corpus.tree,
                     TwigOptions(kAccuracySeed, kAccuracyPositive, true)),
                 &seen, &set);
  AppendDistinct(workload::GenerateAxes(
                     corpus.tree,
                     TwigOptions(kAccuracySeed + 1, kAccuracyAxes, true)),
                 &seen, &set);
  const core::TwigEstimator estimator(&summary);
  double sum = 0;
  size_t n = 0;
  for (size_t i = 0; i < set.twigs.size(); ++i) {
    if (!(set.truth[i] > 0)) continue;
    const Result<double> r = estimator.TryEstimate(set.twigs[i], kAlgorithm);
    if (!r.ok()) continue;
    sum += std::abs(*r - set.truth[i]) / set.truth[i];
    ++n;
  }
  report->Info(Format("accuracy set: %zu twigs with exact counts", n));
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

cst::Cst BuildFullCst(const exp::Dataset& corpus) {
  cst::CstOptions options;
  options.prune_threshold = 1;  // nothing pruned
  return cst::Cst::Build(corpus.tree, corpus.pst, options);
}

/// Runs `setup` kSetupReps times and returns the median seconds. Each
/// call builds everything afresh and replaces the previous instance.
template <typename Fn>
double TimeSetup(Fn&& setup, Report* report) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(Seconds(start));
  }
  std::string list;
  for (double t : times) list += Format(" %.3f", t);
  report->Info("setup seconds:" + list);
  return Median(times);
}

/// Returns free heap pages to the system and restarts the kernel's
/// peak-RSS count, so peak_rss_mib covers the measured window (with
/// everything set up and resident) and not the benchmark's own input
/// generation. False when the kernel refuses the reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

/// Peak resident set size since the last reset, in MiB, less
/// `sample_bytes`: the benchmark's own latency samples, which grow with
/// throughput and are not the program's memory.
double PeakRssMib(size_t sample_bytes) {
  double kib = 0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) kib = std::strtod(line.c_str() + 6, nullptr);
  }
  if (kib == 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kib = static_cast<double>(usage.ru_maxrss);
  }
  return (kib * 1024.0 - static_cast<double>(sample_bytes)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Timed samples and rounds

/// The measured window [start, start + seconds) split into kRounds.
struct Window {
  int64_t start_ns = 0;
  double seconds = 0;

  int Round(int64_t end_ns) const {
    if (end_ns < start_ns) return -1;
    const double at = static_cast<double>(end_ns - start_ns) * 1e-9;
    const int round = static_cast<int>(at / seconds * kRounds);
    return round < kRounds ? round : -1;
  }
};

Window StartWindow(double seconds) {
  // A short warm-up precedes the window so caches and lazy set-up are
  // done before timing starts.
  const double warmup = std::min(0.5, seconds * 0.1);
  return Window{NowNanos() + static_cast<int64_t>(warmup * 1e9), seconds};
}

/// Raw latency samples (microseconds) of the measured window, grouped
/// by the round they completed in; samples outside it are dropped.
/// Deques grow in fixed blocks, so the samples occupy bytes() and no
/// reallocation doubles them; peak_rss_mib subtracts that.
class RoundSamples {
 public:
  explicit RoundSamples(const Window& window)
      : window_(window), rounds_(kRounds) {}

  void Add(int64_t end_ns, double latency_us) {
    const int round = window_.Round(end_ns);
    if (round >= 0) {
      rounds_[round].push_back(static_cast<float>(latency_us));
      ++count_;
    }
  }

  const Window& window() const { return window_; }
  const std::vector<std::deque<float>>& rounds() const { return rounds_; }
  size_t bytes() const { return count_ * sizeof(float); }

 private:
  Window window_;
  std::vector<std::deque<float>> rounds_;
  size_t count_ = 0;
};

/// Adds throughput_qps and the latency percentiles, each the median of
/// its per-round values, printed with sample counts.
void AddTimingMetrics(const RoundSamples& samples, double items_per_sample,
                      const char* sample_what, Report* report) {
  const double round_seconds = samples.window().seconds / kRounds;
  std::vector<double> qps, p50, p99;
  size_t total = 0, min_beyond = SIZE_MAX;
  std::string per_round;
  for (const std::deque<float>& samples_of_round : samples.rounds()) {
    std::vector<float> round(samples_of_round.begin(), samples_of_round.end());
    total += round.size();
    qps.push_back(static_cast<double>(round.size()) * items_per_sample /
                  round_seconds);
    size_t beyond = 0;
    p50.push_back(Percentile(round, 0.50, nullptr));
    p99.push_back(Percentile(round, 0.99, &beyond));
    min_beyond = std::min(min_beyond, beyond);
    per_round += Format(" %.0f/%.3f/%.3f", qps.back(), p50.back(), p99.back());
  }
  report->Info("rounds (throughput/p50/p99):" + per_round);
  const std::string rounds_note =
      Format("median of %d rounds of %.2f s", kRounds, round_seconds);
  report->Add("throughput_qps", Median(qps), "1/s",
              Format("(%zu %s, %s)", total, sample_what, rounds_note.c_str()));
  report->Add("latency_p50_us", Median(p50), "us",
              Format("(%zu samples, %s)", total, rounds_note.c_str()));
  report->Add("latency_p99_us", Median(p99), "us",
              Format("(%zu samples, %s; fewest beyond p99 in a round: %zu)",
                     total, rounds_note.c_str(), min_beyond));
  if (min_beyond < 10) {
    report->Info("warning: a round has fewer than 10 samples beyond p99");
  }
}

/// Adds the metrics every workload reports besides timing.
void AddCommonMetrics(double setup_s, double peak_rss_mib, double accuracy,
                      const Gate& gate, Report* report) {
  report->Add("setup_s", setup_s, "s",
              Format("(median of %d set-ups)", kSetupReps));
  report->Add("peak_rss_mib", peak_rss_mib, "MiB",
              "(high-water mark over the measured window, less the "
              "benchmark's own latency samples)");
  report->Add("abs_rel_error_mean", accuracy, "ratio",
              "(mean over the accuracy set)");
  report->Info(Format("failed_share %.6f (%llu failed of %llu attempted)",
                      Ratio(static_cast<double>(gate.failed()),
                            static_cast<double>(gate.attempted())),
                      static_cast<unsigned long long>(gate.failed()),
                      static_cast<unsigned long long>(gate.attempted())));
}

// ---------------------------------------------------------------------------
// The estimator, stage by stage

/// core::TwigEstimator::TryEstimate for MSH under occurrence semantics,
/// with a span around each stage. Same calls in the same order, so the
/// answer is bit-identical.
Result<double> StagedEstimate(const cst::CstView& view,
                              const query::Twig& twig, SpanLog* log) {
  const ScopedSpan query_span(log, SpanName::kQuery);
  core::ExpandedQuery eq;
  {
    const ScopedSpan span(log, SpanName::kCoreExpand);
    eq = core::ExpandQuery(twig, view);
  }
  if (eq.atoms.empty()) {
    return Status::InvalidArgument("cannot estimate an empty twig");
  }
  std::vector<core::ParsedPiece> parsed;
  {
    const ScopedSpan span(log, SpanName::kCoreParse);
    parsed = core::ParseQuery(eq, view, core::ParseStrategy::kMaximal);
  }
  std::vector<core::EstimandPiece> pieces;
  {
    const ScopedSpan span(log, SpanName::kCoreDecompose);
    pieces = core::MshDecompose(eq, parsed);
  }
  const ScopedSpan span(log, SpanName::kCoreCombine);
  core::CombineOptions options;
  options.semantics = core::CountSemantics::kOccurrence;
  const core::Combiner combiner(eq, view, options);
  const double estimate = combiner.MoCombine(std::move(pieces));
  if (!combiner.status().ok()) return combiner.status();
  return estimate;
}

uint64_t CounterDelta(const obs::MetricsSnapshot& after,
                      const obs::MetricsSnapshot& before, obs::Counter c) {
  const size_t i = static_cast<size_t>(c);
  return after.counters[i] - before.counters[i];
}

/// Optional page-level probes for the paged summary.
struct StorageProbe {
  const cst::PagedCst* paged = nullptr;
  ProbedPageSource* source = nullptr;
};

/// The traced estimator phase every workload runs on its own twig
/// stream: first untraced (TryEstimate), then through the staged
/// pipeline and the probes. Reports the core, cst, sethash and storage
/// metrics, the core share of query time and the tracing overhead.
void RunEstimatorTrace(const cst::CstView& view, const Pool& pool,
                       size_t ref_index, const std::vector<uint32_t>& stream,
                       double seconds, const StorageProbe& storage,
                       const std::string& trace_path, Gate* gate,
                       Report* report) {
  // Untraced half: TryEstimate latencies on the same stream.
  const core::TwigEstimator estimator(&view);
  std::vector<double> untraced;
  const int64_t untraced_end =
      NowNanos() + static_cast<int64_t>(seconds * 0.3e9);
  for (size_t i = 0; NowNanos() < untraced_end || untraced.empty(); ++i) {
    const uint32_t idx = stream[i % stream.size()];
    const int64_t start = NowNanos();
    const Result<double> r = estimator.TryEstimate(pool.twigs[idx], kAlgorithm);
    untraced.push_back(static_cast<double>(NowNanos() - start) * 1e-3);
    gate->Check(r, pool.refs[ref_index][idx]);
  }

  // Traced half: spans around every stage and every CstView call.
  SpanLog log(kSpanCapacity);
  ProbedCst probed(&view, &log);
  if (storage.source != nullptr) storage.source->set_log(&log);
  const storage::BufferManager::Stats pool_before =
      storage.paged ? storage.paged->buffer().stats()
                    : storage::BufferManager::Stats{};
  const uint64_t reads_before = storage.source ? storage.source->reads() : 0;
  const uint64_t read_ns_before =
      storage.source ? storage.source->read_nanos() : 0;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Get().Snapshot();
  const int64_t traced_end = NowNanos() + static_cast<int64_t>(seconds * 0.7e9);
  size_t queries = 0;
  // Stop with headroom so the last query's spans fit; one that still
  // overflows is left out of the span statistics.
  while ((NowNanos() < traced_end && log.spans().size() < kSpanCapacity / 2) ||
         queries == 0) {
    const uint32_t idx = stream[queries % stream.size()];
    log.set_request(++queries);
    gate->Check(StagedEstimate(probed, pool.twigs[idx], &log),
                pool.refs[ref_index][idx]);
  }
  if (log.full()) --queries;  // the last query's spans are incomplete
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Get().Snapshot();
  if (storage.source != nullptr) storage.source->set_log(nullptr);

  // Self times by stage, and the core share of traced query time.
  const std::vector<int64_t> self = log.SelfNanos();
  std::vector<double> self_ns(static_cast<size_t>(SpanName::kCount));
  std::vector<double> query_ns;
  double core_ns = 0, cst_ns = 0;
  for (size_t i = 0; i < log.spans().size(); ++i) {
    const Span& span = log.spans()[i];
    if (span.request > queries) break;
    const double dur = static_cast<double>(span.end_ns - span.start_ns);
    self_ns[static_cast<size_t>(span.name)] += static_cast<double>(self[i]);
    if (span.name == SpanName::kQuery) query_ns.push_back(dur);
    if (span.name >= SpanName::kCoreExpand &&
        span.name <= SpanName::kCoreCombine) {
      core_ns += dur;
    }
    if (IsCstSpan(span.name)) cst_ns += dur;
  }
  const double q = static_cast<double>(queries);
  const double total_query_ns =
      std::accumulate(query_ns.begin(), query_ns.end(), 0.0);
  const auto per_query_us = [&](SpanName name) {
    return self_ns[static_cast<size_t>(name)] / q * 1e-3;
  };
  const std::string self_note = Format("(self time, mean of %zu queries)",
                                       queries);
  report->Add("core.expand_us", per_query_us(SpanName::kCoreExpand), "us",
              self_note);
  report->Add("core.parse_us", per_query_us(SpanName::kCoreParse), "us",
              self_note);
  report->Add("core.decompose_us", per_query_us(SpanName::kCoreDecompose),
              "us", self_note);
  report->Add("core.combine_us", per_query_us(SpanName::kCoreCombine), "us",
              self_note);
  report->Add("core.share_of_query", Ratio(core_ns, total_query_ns), "ratio",
              Format("(core stage spans %.0f ns of %.0f ns traced query time)",
                     core_ns, total_query_ns));
  report->Add("cst.calls_per_query",
              static_cast<double>(probed.calls()) / q, "count",
              Format("(%llu CstView calls)",
                     static_cast<unsigned long long>(probed.calls())));
  report->Add("cst.us_per_query", cst_ns / q * 1e-3, "us",
              "(CstView call spans, inclusive)");
  const uint64_t lookups =
      CounterDelta(after, before, obs::Counter::kCstSubpathLookups);
  const uint64_t hits = CounterDelta(after, before, obs::Counter::kCstSubpathHits);
  report->Add("cst.subpath_hit_ratio", Ratio(hits, lookups), "ratio",
              RatioNote(hits, lookups, "subpath lookups"));
  const uint64_t intersections =
      CounterDelta(after, before, obs::Counter::kSethashIntersections);
  const uint64_t fallbacks =
      CounterDelta(after, before, obs::Counter::kTwigletMoFallbacks);
  report->Add("sethash.intersections_per_query",
              static_cast<double>(intersections) / q, "count",
              Format("(%llu intersections)",
                     static_cast<unsigned long long>(intersections)));
  report->Add("sethash.mo_fallback_ratio", Ratio(fallbacks, intersections),
              "ratio", RatioNote(fallbacks, intersections, "intersections"));

  // Storage: buffer-pool deltas and the page-source probe.
  storage::BufferManager::Stats pool_after = pool_before;
  if (storage.paged != nullptr) pool_after = storage.paged->buffer().stats();
  const uint64_t pins = pool_after.pins - pool_before.pins;
  const uint64_t reads = pool_after.reads - pool_before.reads;
  const uint64_t evictions = pool_after.evictions - pool_before.evictions;
  const uint64_t read_ns =
      storage.source ? storage.source->read_nanos() - read_ns_before : 0;
  const uint64_t source_reads =
      storage.source ? storage.source->reads() - reads_before : 0;
  report->Add("storage.pins_per_query", static_cast<double>(pins) / q, "count",
              Format("(%llu pins)", static_cast<unsigned long long>(pins)));
  report->Add("storage.reads_per_query", static_cast<double>(reads) / q,
              "count",
              Format("(%llu reads; %llu seen by the page source)",
                     static_cast<unsigned long long>(reads),
                     static_cast<unsigned long long>(source_reads)));
  report->Add("storage.evictions_per_query",
              static_cast<double>(evictions) / q, "count");
  report->Add("storage.hit_ratio",
              pins > 0 ? 1.0 - static_cast<double>(reads) / pins : 0, "ratio",
              RatioNote(pins - std::min(pins, reads), pins, "pins"));
  report->Add("storage.read_us_per_query",
              static_cast<double>(read_ns) / q * 1e-3, "us");

  const double untraced_p50 = Percentile(untraced, 0.5, nullptr);
  const double traced_p50 = Percentile(query_ns, 0.5, nullptr) * 1e-3;
  report->Add("trace.overhead_us", traced_p50 - untraced_p50, "us",
              Format("(traced p50 %.3f us over %zu queries minus untraced "
                     "p50 %.3f us over %zu)",
                     traced_p50, query_ns.size(), untraced_p50,
                     untraced.size()));
  if (!trace_path.empty()) {
    if (WriteSpans(trace_path, {&log})) {
      report->Info(Format("spans written to %s (%zu spans)",
                          trace_path.c_str(), log.spans().size()));
    } else {
      report->Info("could not write spans to " + trace_path);
    }
  }
}

/// Per-layer metrics of layers a workload does not pass through: zero,
/// so every traced run prints the same metric set.
void AddIdleServeMetrics(Report* report) {
  for (const char* name :
       {"serve.tcp.residual_us", "serve.wire.parse_us", "serve.wire.encode_us",
        "serve.queue.wait_p50_us", "serve.queue.wait_p99_us",
        "serve.service.exec_p50_us", "serve.service.inproc_p50_us",
        "serve.cache.hit_rtt_p50_us", "serve.cache.miss_rtt_p50_us"}) {
    report->Add(name, 0, "us", "(not on this workload's path)");
  }
  report->Add("serve.cache.hit_ratio", 0, "ratio", "(0 of 0 cache lookups)");
  report->Add("serve.snapshot.swap_ms", 0, "ms",
              "(not on this workload's path)");
}

void AddIdlePoolMetrics(Report* report) {
  report->Add("util.thread_pool.busy_share", 0, "ratio",
              "(no EstimateBatch pool on this workload's path)");
  report->Add("util.thread_pool.dispatch_us", 0, "us");
  report->Add("util.thread_pool.imbalance", 0, "ratio");
}

std::string TracePath(const Args& args) {
  return Format("%s/trace-%s-seed%llu.tsv", args.scratch_dir.c_str(),
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed));
}

// ---------------------------------------------------------------------------
// EstimateBatch: the thread-pool layer, measured in the direct traced run

/// Runs EstimateBatch with kBatchThreads threads (a fresh pool per call)
/// over batches of kBatchSize twigs from the stream for `seconds`,
/// checking every estimate, and adds the util.thread_pool metrics.
void AddThreadPoolMetrics(const cst::CstView& summary, const Pool& pool,
                          const std::vector<uint32_t>& stream, double seconds,
                          SpanLog* log, Gate* gate, Report* report) {
  std::vector<workload::Workload> batches(kBatchCount);
  std::vector<std::vector<uint32_t>> batch_ids(kBatchCount);
  for (size_t b = 0; b < kBatchCount; ++b) {
    for (size_t i = 0; i < kBatchSize; ++i) {
      const uint32_t idx = stream[(b * kBatchSize + i) % stream.size()];
      batches[b].push_back({pool.twigs[idx], {}});
      batch_ids[b].push_back(idx);
    }
  }
  const core::TwigEstimator estimator(&summary);
  core::BatchOptions options;
  options.num_threads = kBatchThreads;
  double busy = 0, capacity = 0;
  std::vector<double> dispatch_us, imbalance;
  const int64_t end = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  for (size_t call = 0; NowNanos() < end || call == 0; ++call) {
    const size_t b = call % kBatchCount;
    stats::BatchStats stats;
    std::vector<double> estimates;
    {
      const ScopedSpan span(log, SpanName::kBatchCall);
      estimates = estimator.EstimateBatch(batches[b], kAlgorithm, options,
                                          &stats);
    }
    for (size_t i = 0; i < estimates.size(); ++i) {
      gate->Check(std::isnan(estimates[i])
                      ? Result<double>(Status::Internal(
                            "EstimateBatch slot holds NaN"))
                      : Result<double>(estimates[i]),
                  pool.refs[0][batch_ids[b][i]]);
    }
    busy += stats.busy_seconds();
    capacity += static_cast<double>(stats.num_threads) * stats.wall_seconds;
    const double max_busy = *std::max_element(
        stats.busy_seconds_per_thread.begin(),
        stats.busy_seconds_per_thread.end());
    dispatch_us.push_back((stats.wall_seconds - max_busy) * 1e6);
    const auto [lo, hi] = std::minmax_element(stats.queries_per_thread.begin(),
                                              stats.queries_per_thread.end());
    imbalance.push_back(static_cast<double>(*hi) /
                        static_cast<double>(std::max<size_t>(*lo, 1)));
  }
  report->Add("util.thread_pool.busy_share", Ratio(busy, capacity), "ratio",
              Format("(%.4f busy s of %.4f thread-s over %zu EstimateBatch "
                     "calls of %zu twigs on %zu threads)",
                     busy, capacity, dispatch_us.size(), kBatchSize,
                     kBatchThreads));
  report->Add("util.thread_pool.dispatch_us", Median(dispatch_us), "us",
              "(median over calls of wall time minus the busiest thread)");
  report->Add("util.thread_pool.imbalance", Median(imbalance), "ratio",
              "(median over calls of max/min queries per thread)");
}

// ---------------------------------------------------------------------------
// The serve layer: an in-process TcpFrontEnd over loopback

/// A loopback connection speaking the newline-delimited JSON protocol.
class LineConn {
 public:
  static std::unique_ptr<LineConn> Connect(uint16_t port) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    auto conn = std::unique_ptr<LineConn>(new LineConn(fd));
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      return nullptr;
    }
    return conn;
  }

  ~LineConn() { close(fd_); }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  int fd() const { return fd_; }

  /// Sends one whole request line (newline included).
  bool Send(std::string_view line) {
    while (!line.empty()) {
      const ssize_t n = send(fd_, line.data(), line.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      line.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// Reads what the socket holds (call when it polls readable). Sets
  /// `*complete` and `*reply` once a whole line has arrived. False when
  /// the connection is closed or failed.
  bool Receive(std::string* reply, bool* complete) {
    char chunk[4096];
    ssize_t n = 0;
    do {
      n = recv(fd_, chunk, sizeof chunk, 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    const size_t newline = buffer_.find('\n');
    *complete = newline != std::string::npos;
    if (*complete) {
      reply->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
    }
    return true;
  }

 private:
  explicit LineConn(int fd) : fd_(fd) {}

  int fd_;
  std::string buffer_;
};

/// The server under test: twig_serve's defaults plus a result cache.
/// Members are destroyed front end first, then the service, then the
/// catalog, which is the teardown order they require.
struct WireServer {
  std::shared_ptr<const cst::Cst> small;
  std::shared_ptr<const cst::Cst> large;
  serve::SnapshotCatalog catalog;
  std::unique_ptr<serve::EstimateService> service;
  std::unique_ptr<serve::TcpFrontEnd> front;
};

Status StartWireServer(const exp::Dataset& corpus, WireServer* server) {
  server->small = std::make_shared<const cst::Cst>(
      exp::BuildCstAtFraction(corpus, kSmallSpace));
  server->large = std::make_shared<const cst::Cst>(
      exp::BuildCstAtFraction(corpus, kLargeSpace));
  server->catalog.Publish(std::shared_ptr<const cst::CstView>(server->small),
                          "1%");
  serve::ServiceOptions service_options;
  service_options.num_workers = kWireWorkers;
  service_options.cache_entries = kWireCacheEntries;
  server->service = std::make_unique<serve::EstimateService>(
      &server->catalog, service_options);
  serve::TcpOptions tcp_options;
  tcp_options.num_connection_threads = kWireEpollThreads;
  // A swap publishes one of the two prebuilt summaries: space 0.02
  // selects the 2% one, anything else the 1% one.
  tcp_options.rebuild_view =
      [small = server->small, large = server->large](
          double space) -> Result<std::shared_ptr<const cst::CstView>> {
    return std::shared_ptr<const cst::CstView>(space > 0.015 ? large : small);
  };
  server->front = std::make_unique<serve::TcpFrontEnd>(
      &server->catalog, server->service.get(), tcp_options);
  return server->front->Start();
}

/// The reference row of the summary a snapshot version serves: version
/// 1 is the 1% summary and swap k publishes version k + 1, alternating
/// 2%, 1%, ... so odd versions are 1% and even versions 2%.
size_t RefIndexForVersion(uint64_t version) { return version % 2 == 1 ? 0 : 1; }

struct WireSample {
  int64_t end_ns = 0;
  double rtt_us = 0;
  double wait_us = 0;
  double exec_us = 0;
  bool cached = false;
  uint32_t twig = 0;
};

/// Inputs of the wire load, and the swaps it made.
struct WireLoad {
  const Pool* pool = nullptr;
  const std::vector<std::string>* lines = nullptr;
  const ZipfSampler* zipf = nullptr;
  uint16_t port = 0;
  uint64_t seed = 0;
  Gate* gate = nullptr;
  uint64_t swaps = 0;
  std::vector<double> swap_ms;
};

/// What the wire load measured: RTTs by round, and per-reply details.
struct WireResult {
  explicit WireResult(const Window& window) : rtts(window) {}
  RoundSamples rtts;
  std::vector<WireSample> details;
};

/// The closed-loop wire load: one client thread keeps one request
/// outstanding on each of kWireConnections connections, through a
/// warm-up and the measured window. Every kSwapEvery-th request is an
/// in-band swap; swaps go one at a time, so swap k publishes version
/// k + 1 and RefIndexForVersion holds. Each request's span goes to `log`.
WireResult RunWireLoad(WireLoad& load, const Window& window, SpanLog* log) {
  WireResult result(window);
  struct Conn {
    std::unique_ptr<LineConn> line;
    int64_t sent_ns = 0;
    uint64_t request = 0;
    uint32_t twig = 0;
    uint64_t swap = 0;  // nonzero: the outstanding request is swap #swap
  };
  std::vector<Conn> conns(kWireConnections);
  std::vector<pollfd> fds(kWireConnections);
  Rng rng(Mix64(load.seed * 131 + 1));
  uint64_t issued = 0;
  bool swap_in_flight = false;
  const auto issue = [&](Conn& conn) {
    conn.request = ++issued;
    conn.swap = 0;
    std::string swap_line;
    std::string_view line;
    if (issued % kSwapEvery == 0 && !swap_in_flight) {
      conn.swap = ++load.swaps;
      swap_in_flight = true;
      const double space = conn.swap % 2 == 1 ? kLargeSpace : kSmallSpace;
      swap_line = Format("{\"op\":\"swap\",\"space\":%.2f}\n", space);
      line = swap_line;
    } else {
      conn.twig = static_cast<uint32_t>(load.zipf->Sample(rng));
      line = (*load.lines)[conn.twig];
    }
    load.gate->Attempt();
    conn.sent_ns = NowNanos();
    return conn.line->Send(line);
  };
  size_t open = 0;
  for (size_t c = 0; c < kWireConnections; ++c) {
    conns[c].line = LineConn::Connect(load.port);
    fds[c] = {-1, POLLIN, 0};
    if (conns[c].line == nullptr || !issue(conns[c])) {
      load.gate->Fail("cannot connect or send to the server");
      continue;
    }
    fds[c].fd = conns[c].line->fd();
    ++open;
  }

  const int64_t end =
      window.start_ns + static_cast<int64_t>(window.seconds * 1e9);
  std::string reply;
  while (open > 0) {
    const int n = poll(fds.data(), fds.size(), 100);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 && NowNanos() > end + 5'000'000'000) {
      load.gate->Fail("no reply within 5 s of the window's end");
      break;
    }
    for (size_t c = 0; c < kWireConnections; ++c) {
      if (fds[c].fd < 0 || (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      Conn& conn = conns[c];
      bool complete = false;
      if (!conn.line->Receive(&reply, &complete)) {
        load.gate->Fail("connection lost");
        fds[c].fd = -1;
        --open;
        continue;
      }
      if (!complete) continue;
      const int64_t now = NowNanos();
      log->Record(conn.swap != 0 ? SpanName::kSnapshotSwap
                                 : SpanName::kTcpRequest,
                  conn.sent_ns, now, conn.request);
      Result<obs::JsonValue> parsed = obs::ParseJson(reply);
      if (!parsed.ok() || !parsed->GetBool("ok")) {
        load.gate->Fail("error reply: " + reply);
      } else if (conn.swap != 0) {
        if (static_cast<uint64_t>(parsed->GetNumber("version")) !=
            conn.swap + 1) {
          load.gate->Fail("swap published an unexpected version: " + reply);
        }
        load.swap_ms.push_back(static_cast<double>(now - conn.sent_ns) * 1e-6);
      } else {
        const obs::JsonValue* estimate = parsed->Find("estimate");
        const uint64_t version =
            static_cast<uint64_t>(parsed->GetNumber("version"));
        load.gate->Compare(
            estimate != nullptr &&
                    estimate->kind == obs::JsonValue::Kind::kNumber
                ? Result<double>(estimate->number_value)
                : Result<double>(
                      Status::Internal("reply has no numeric estimate")),
            load.pool->refs[RefIndexForVersion(version)][conn.twig]);
        const double rtt_us = static_cast<double>(now - conn.sent_ns) * 1e-3;
        result.rtts.Add(now, rtt_us);
        result.details.push_back({now, rtt_us, parsed->GetNumber("wait_us"),
                                  parsed->GetNumber("exec_us"),
                                  parsed->GetBool("cached"), conn.twig});
      }
      if (conn.swap != 0) swap_in_flight = false;
      if (now >= end) {  // the window is over: stop this connection
        fds[c].fd = -1;
        --open;
      } else if (!issue(conn)) {
        load.gate->Fail("send failed");
        fds[c].fd = -1;
        --open;
      }
    }
  }
  return result;
}

/// Adds the q-th percentile of `value` over the in-window samples that
/// pass `keep`, noting the sample count and how many rank beyond it.
template <typename Keep, typename Value>
void AddWirePercentile(const char* name, double q,
                       const std::vector<WireSample>& samples,
                       const Window& window, Keep keep, Value value,
                       const char* what, Report* report) {
  std::vector<double> values;
  for (const WireSample& s : samples) {
    if (window.Round(s.end_ns) >= 0 && keep(s)) values.push_back(value(s));
  }
  size_t beyond = 0;
  const double p = Percentile(values, q, &beyond);
  report->Add(name, p, "us",
              Format("(p%.0f of %zu %s, %zu beyond)", q * 100, values.size(),
                     what, beyond));
}

/// Times ParseRequest and EstimateWireResponse on the workload's own
/// request lines, `calls` each; adds the mean microseconds per call.
void TimeWireCodec(const WireLoad& load, size_t calls, SpanLog* log,
                   Report* report) {
  Rng rng(load.seed + 7);
  int64_t parse_ns = 0, encode_ns = 0;
  serve::EstimateResponse response;
  response.snapshot_version = 1;
  response.queue_wait = std::chrono::microseconds(5);
  response.exec_time = std::chrono::microseconds(10);
  for (size_t i = 0; i < calls; ++i) {
    const size_t idx = load.zipf->Sample(rng);
    std::string_view line = (*load.lines)[idx];
    line.remove_suffix(1);  // the newline
    log->set_request(i + 1);
    int64_t start = NowNanos();
    Result<serve::WireRequest> request = Status::Internal("unparsed");
    {
      const ScopedSpan span(log, SpanName::kWireParse);
      request = serve::ParseRequest(line);
    }
    parse_ns += NowNanos() - start;
    if (!request.ok()) {
      load.gate->Attempt();
      load.gate->Fail("ParseRequest rejected a request line");
      continue;
    }
    response.estimate = load.pool->refs[0][idx];
    start = NowNanos();
    std::string encoded;
    {
      const ScopedSpan span(log, SpanName::kWireEncode);
      encoded = serve::EstimateWireResponse(*request, response);
    }
    encode_ns += NowNanos() - start;
    if (encoded.empty()) {
      load.gate->Attempt();
      load.gate->Fail("EstimateWireResponse produced nothing");
    }
  }
  const double n = static_cast<double>(calls);
  report->Add("serve.wire.parse_us", static_cast<double>(parse_ns) / n * 1e-3,
              "us", Format("(mean of %zu ParseRequest calls)", calls));
  report->Add("serve.wire.encode_us",
              static_cast<double>(encode_ns) / n * 1e-3, "us",
              Format("(mean of %zu EstimateWireResponse calls)", calls));
}

/// The same twig stream through EstimateService::SubmitAndWait from
/// kWireConnections threads, no socket; returns the p50 latency.
double RunInProcess(WireServer& server, const WireLoad& load, double seconds,
                    SpanLog* log, Gate* gate, size_t* count) {
  std::vector<std::vector<double>> latencies(kWireConnections);
  std::vector<std::thread> threads;
  const int64_t end = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  for (size_t t = 0; t < kWireConnections; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(Mix64(load.seed * 977 + t));
      while (NowNanos() < end) {
        const uint32_t idx = static_cast<uint32_t>(load.zipf->Sample(rng));
        serve::EstimateRequest request;
        request.twig = load.pool->twigs[idx];
        const int64_t start = NowNanos();
        serve::EstimateResponse response;
        {
          // Only thread 0 records spans: a log is single-threaded.
          const ScopedSpan span(t == 0 ? log : nullptr,
                                SpanName::kServiceSubmit);
          response = server.service->SubmitAndWait(std::move(request));
        }
        latencies[t].push_back(static_cast<double>(NowNanos() - start) *
                               1e-3);
        gate->Check(response.status.ok()
                        ? Result<double>(response.estimate)
                        : Result<double>(response.status),
                    load.pool->refs[RefIndexForVersion(
                        response.snapshot_version)][idx]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  *count = all.size();
  return Percentile(all, 0.5, nullptr);
}

/// The serve layer, measured in the traced direct run: an in-process
/// TcpFrontEnd (twig_serve's 2 workers and 1% summary, plus a result
/// cache) under the closed-loop wire load for half of `seconds`, the
/// same stream through SubmitAndWait, and the wire codec on the
/// workload's request lines. Returns false when the server cannot start.
bool AddServeMetrics(const exp::Dataset& corpus, const Args& args,
                     double seconds, Gate* gate, Report* report) {
  WireServer server;
  if (Status started = StartWireServer(corpus, &server); !started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return false;
  }
  // The pool as the server sees it: each twig re-parsed from its text.
  Pool pool = MakePositivePool(corpus, args.seed, kWirePool);
  for (query::Twig& twig : pool.twigs) {
    Result<query::Twig> reparsed = query::ParseTwig(query::FormatTwig(twig));
    if (!reparsed.ok()) {
      std::fprintf(stderr, "twig text does not parse back: %s\n",
                   query::FormatTwig(twig).c_str());
      return false;
    }
    twig = std::move(reparsed).value();
  }
  ComputeReferences({server.small.get(), server.large.get()}, &pool, report,
                    "wire");
  if (args.plant_wrong_reference) pool.refs[0][0] += 1;
  std::vector<std::string> lines;
  for (const query::Twig& twig : pool.twigs) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("op");
    w.String("estimate");
    w.Key("query");
    w.String(query::FormatTwig(twig));
    w.Key("algo");
    w.String(core::AlgorithmName(kAlgorithm));
    w.EndObject();
    lines.push_back(std::move(w).str() + "\n");
  }
  const ZipfSampler zipf(pool.twigs.size(), kWireZipf);
  WireLoad load;
  load.pool = &pool;
  load.lines = &lines;
  load.zipf = &zipf;
  load.port = server.front->port();
  load.seed = args.seed;
  load.gate = gate;

  // The client's requests, the codec calls and the in-process calls
  // each record into their own log.
  SpanLog client_log(kSpanCapacity), codec_log(kSpanCapacity / 8),
      inproc_log(kSpanCapacity / 2);
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Get().Snapshot();
  const Window window = StartWindow(seconds * 0.5);
  WireResult result = RunWireLoad(load, window, &client_log);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Get().Snapshot();
  const std::vector<WireSample>& samples = result.details;
  const uint64_t cache_hits =
      CounterDelta(after, before, obs::Counter::kServeCacheHits);
  const uint64_t cache_lookups =
      cache_hits + CounterDelta(after, before, obs::Counter::kServeCacheMisses);
  std::vector<float> rtts;
  for (const std::deque<float>& round : result.rtts.rounds()) {
    rtts.insert(rtts.end(), round.begin(), round.end());
  }
  size_t beyond = 0;
  const double rtt_p99 = Percentile(rtts, 0.99, &beyond);
  report->Info(Format(
      "wire: %zu estimates in %.1f s, RTT p50 %.1f us, p99 %.1f us (%zu "
      "beyond); %llu swaps; %s",
      rtts.size(), window.seconds, Percentile(rtts, 0.5, nullptr), rtt_p99,
      beyond, static_cast<unsigned long long>(load.swaps),
      RatioNote(cache_hits, cache_lookups, "cache lookups hit").c_str()));

  const auto miss = [](const WireSample& s) { return !s.cached; };
  const auto hit = [](const WireSample& s) { return s.cached; };
  const auto rtt = [](const WireSample& s) { return s.rtt_us; };
  const auto wait = [](const WireSample& s) { return s.wait_us; };
  const char* const uncached = "uncached replies";
  AddWirePercentile(
      "serve.tcp.residual_us", 0.5, samples, window, miss,
      [](const WireSample& s) { return s.rtt_us - s.wait_us - s.exec_us; },
      "RTT - wait_us - exec_us of uncached replies", report);
  TimeWireCodec(load, 20000, &codec_log, report);
  AddWirePercentile("serve.queue.wait_p50_us", 0.5, samples, window, miss,
                    wait, uncached, report);
  AddWirePercentile("serve.queue.wait_p99_us", 0.99, samples, window, miss,
                    wait, uncached, report);
  AddWirePercentile("serve.service.exec_p50_us", 0.5, samples, window, miss,
                    [](const WireSample& s) { return s.exec_us; }, uncached,
                    report);
  size_t inproc_count = 0;
  const double inproc = RunInProcess(server, load, seconds * 0.15,
                                     &inproc_log, gate, &inproc_count);
  report->Add("serve.service.inproc_p50_us", inproc, "us",
              Format("(%zu SubmitAndWait calls from %zu threads)",
                     inproc_count, kWireConnections));
  report->Add("serve.cache.hit_ratio", Ratio(cache_hits, cache_lookups),
              "ratio", RatioNote(cache_hits, cache_lookups, "cache lookups"));
  AddWirePercentile("serve.cache.hit_rtt_p50_us", 0.5, samples, window, hit,
                    rtt, "cached replies", report);
  AddWirePercentile("serve.cache.miss_rtt_p50_us", 0.5, samples, window, miss,
                    rtt, uncached, report);
  report->Add("serve.snapshot.swap_ms", Median(load.swap_ms), "ms",
              Format("(median of %zu swap round trips)", load.swap_ms.size()));

  const std::string path = Format(
      "%s/trace-%s-seed%llu-serve.tsv", args.scratch_dir.c_str(),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed));
  if (WriteSpans(path, {&client_log, &codec_log, &inproc_log})) {
    report->Info("serve spans written to " + path);
  }
  return true;
}

// ---------------------------------------------------------------------------
// direct and paged: one thread calling TryEstimate

/// Runs TryEstimate on `view` over the stream for a warm-up and a
/// measured window of `seconds`; returns the window's samples.
RoundSamples RunClosedLoop(const cst::CstView& view, const Pool& pool,
                           size_t ref_index,
                           const std::vector<uint32_t>& stream, double seconds,
                           Gate* gate) {
  const core::TwigEstimator estimator(&view);
  ResetPeakRss();
  RoundSamples samples(StartWindow(seconds));
  const int64_t end = samples.window().start_ns +
                      static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0;; ++i) {
    const uint32_t idx = stream[i % stream.size()];
    const int64_t start = NowNanos();
    if (start >= end) break;
    const Result<double> r = estimator.TryEstimate(pool.twigs[idx], kAlgorithm);
    const int64_t stop = NowNanos();
    gate->Check(r, pool.refs[ref_index][idx]);
    samples.Add(stop, static_cast<double>(stop - start) * 1e-3);
  }
  return samples;
}

int RunDirect(const Args& args, Report* report, Gate* gate) {
  std::unique_ptr<exp::Dataset> corpus;
  std::unique_ptr<cst::Cst> summary;
  const double setup_s = TimeSetup(
      [&] {
        summary.reset();
        corpus.reset();
        corpus = std::make_unique<exp::Dataset>(MakeCorpus(args));
        summary = std::make_unique<cst::Cst>(
            exp::BuildCstAtFraction(*corpus, kSmallSpace));
      },
      report);
  report->Info(Format("1%% summary: %zu bytes, %zu nodes",
                      summary->size_bytes(), summary->node_count()));
  Pool pool = MakeMixPool(*corpus, args.seed);
  ComputeReferences({summary.get()}, &pool, report, "mix");
  if (args.plant_wrong_reference) pool.refs[0][0] += 1;
  const std::vector<uint32_t> stream =
      ShuffledStream(pool.twigs.size(), args.seed, 16);

  if (args.trace) {
    SpanLog pool_log(kSpanCapacity / 8);
    AddThreadPoolMetrics(*summary, pool, stream, args.seconds * 0.2,
                         &pool_log, gate, report);
    if (!AddServeMetrics(*corpus, args, args.seconds * 0.4, gate, report)) {
      return 2;
    }
    RunEstimatorTrace(*summary, pool, 0, stream, args.seconds * 0.4, {},
                      TracePath(args), gate, report);
    return 0;
  }
  RoundSamples samples =
      RunClosedLoop(*summary, pool, 0, stream, args.seconds, gate);
  const double peak_rss = PeakRssMib(samples.bytes());
  AddTimingMetrics(samples, 1, "estimates", report);
  AddCommonMetrics(setup_s, peak_rss,
                   AccuracyError(*corpus, *summary, report), *gate, report);
  return 0;
}

// ---------------------------------------------------------------------------
// paged: TryEstimate over a PagedCst opened from a TWCST03 store file

int RunPaged(const Args& args, Report* report, Gate* gate) {
  const std::string store_path =
      Format("%s/paged-%d.twcst03", args.scratch_dir.c_str(),
             static_cast<int>(getpid()));
  std::unique_ptr<exp::Dataset> corpus;
  std::unique_ptr<cst::Cst> full;
  std::shared_ptr<cst::PagedCst> paged;
  std::shared_ptr<ProbedPageSource> probed_source;
  size_t store_bytes = 0;
  Status failure;
  const double setup_s = TimeSetup(
      [&] {
        paged.reset();
        probed_source.reset();
        full.reset();
        corpus.reset();
        corpus = std::make_unique<exp::Dataset>(MakeCorpus(args));
        full = std::make_unique<cst::Cst>(BuildFullCst(*corpus));
        Result<std::string> blob = full->SerializePaged();
        if (!blob.ok()) {
          failure = blob.status();
          return;
        }
        store_bytes = blob->size();
        {
          std::ofstream out(store_path, std::ios::binary | std::ios::trunc);
          out.write(blob->data(), static_cast<std::streamsize>(blob->size()));
          if (!out.flush()) {
            failure = Status::Internal("cannot write " + store_path);
            return;
          }
        }
        cst::PagedCstOptions options;
        options.pool_bytes =
            static_cast<size_t>(kPagedPoolShare * static_cast<double>(store_bytes));
        if (args.trace) {
          // The traced run reads pages through the probe.
          Result<std::unique_ptr<storage::MmapPageSource>> source =
              storage::MmapPageSource::Open(store_path);
          if (!source.ok()) {
            failure = source.status();
            return;
          }
          probed_source = std::make_shared<ProbedPageSource>(
              std::shared_ptr<const storage::PageSource>(
                  std::move(source).value()));
          Result<std::shared_ptr<cst::PagedCst>> opened =
              cst::PagedCst::Open(probed_source, options);
          if (!opened.ok()) {
            failure = opened.status();
            return;
          }
          paged = std::move(opened).value();
        } else {
          Result<std::shared_ptr<cst::PagedCst>> opened =
              cst::PagedCst::OpenFile(store_path, options);
          if (!opened.ok()) {
            failure = opened.status();
            return;
          }
          paged = std::move(opened).value();
        }
      },
      report);
  std::remove(store_path.c_str());  // the open mapping stays valid
  if (!failure.ok() || paged == nullptr) {
    std::fprintf(stderr, "paged set-up failed: %s\n",
                 failure.ToString().c_str());
    return 2;
  }
  report->Info(Format("store: %zu bytes in pages of %zu bytes; buffer pool "
                      "%zu bytes; full CST %zu nodes",
                      store_bytes, storage::kDefaultPageBytes,
                      static_cast<size_t>(kPagedPoolShare *
                                          static_cast<double>(store_bytes)),
                      full->node_count()));
  Pool pool = MakePositivePool(*corpus, args.seed, kPagedPool);
  // The reference is the in-memory full CST the store was written from.
  ComputeReferences({full.get()}, &pool, report, "positive");
  if (args.plant_wrong_reference) pool.refs[0][0] += 1;
  const std::vector<uint32_t> stream =
      ShuffledStream(pool.twigs.size(), args.seed, 16);

  if (args.trace) {
    RunEstimatorTrace(*paged, pool, 0, stream, args.seconds,
                      {paged.get(), probed_source.get()}, TracePath(args),
                      gate, report);
    AddIdleServeMetrics(report);
    AddIdlePoolMetrics(report);
    return 0;
  }
  RoundSamples samples =
      RunClosedLoop(*paged, pool, 0, stream, args.seconds, gate);
  const double peak_rss = PeakRssMib(samples.bytes());
  if (paged->storage_error_count() != 0) {
    gate->Fail("paged store reported " +
               std::to_string(paged->storage_error_count()) + " errors");
  }
  AddTimingMetrics(samples, 1, "estimates", report);
  AddCommonMetrics(setup_s, peak_rss, AccuracyError(*corpus, *full, report),
                   *gate, report);
  return 0;
}


}  // namespace
}  // namespace twigbench

int main(int argc, char** argv) {
  twigbench::Args args;
  if (!twigbench::ParseArgs(argc, argv, &args)) return 2;
  twigbench::Report report;
  twigbench::Gate gate;
  int code = 0;
  if (args.workload == "direct") {
    code = twigbench::RunDirect(args, &report, &gate);
  } else {
    code = twigbench::RunPaged(args, &report, &gate);
  }
  if (code != 0) return code;  // set-up failed: no result line
  const bool correct = gate.mismatches() == 0;
  report.Print(correct, gate.attempted(), gate.failed());
  return correct && gate.failed() == 0 ? 0 : 1;
}
