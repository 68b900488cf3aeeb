// Serving-layer benchmark (DESIGN.md §10): what does putting the
// estimator behind the snapshot catalog + bounded queue + worker pool
// cost, and how does the queue behave at and past saturation?
//
//   1. Baseline: direct TwigEstimator calls on the caller thread.
//   2. Served throughput: closed-loop clients (each waits for its
//      response before sending the next) against the EstimateService,
//      sweeping worker counts — per-request overhead is the gap to the
//      baseline.
//   3. Overload: an open-loop burst far past queue capacity; every
//      request is answered (estimate or structured rejection), and the
//      split shows the admission discipline doing its job.
//
// --zipf runs the result-cache comparison instead: the same
// Zipf-skewed request sequence against an uncached and a cached
// service at equal worker counts, verifying every answer (hit or
// compute) against the direct estimator and reporting the speedup.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cst/paged_cst.h"
#include "exp/harness.h"
#include "util/strings.h"
#include "xml/xml.h"
#include "obs/metrics.h"
#include "serve/retry.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "util/failpoint.h"
#include "util/flags.h"

namespace {

using namespace twig;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// One "  <label>: p50 ... us" line from a request-latency histogram
/// (log2 buckets, so percentiles are within a factor of 2).
void PrintLatencyLine(const char* label, const obs::HistogramSnapshot& h) {
  const obs::LatencyPercentiles p = obs::SummarizeLatency(h);
  std::printf("  %-9s p50 %8.1f us | p95 %8.1f us | p99 %8.1f us "
              "(mean %.1f us over %llu)\n",
              label, p.p50_us, p.p95_us, p.p99_us, p.mean_us,
              static_cast<unsigned long long>(p.count));
}

constexpr char kUsage[] =
    "usage: bench_serve [--zipf | --faults=P | --cold-start | --tenants]\n"
    "                   [--count=N] [--workers=N] [--retries=N] [--bytes=N]\n"
    "                   [--buffer-mb=F]\n"
    "  --zipf       run the Zipf-workload result-cache comparison\n"
    "  --tenants    run the multi-tenant fairness benchmark: weighted\n"
    "               tenants under saturating closed-loop load; reports\n"
    "               per-tenant p50/p95/p99 and the fairness ratio\n"
    "  --faults=P   run the goodput-under-faults comparison: inject\n"
    "               estimate faults with probability P (e.g. 0.1) and\n"
    "               measure goodput with and without client retry\n"
    "  --cold-start compare time-to-first-answer from one TWCST03 file:\n"
    "               Deserialize (materialize whole store) vs mmap +\n"
    "               page-in\n"
    "  --count=N    zipf/faults: total requests per run (default 20000)\n"
    "  --workers=N  zipf/faults: estimation workers (default 2)\n"
    "  --retries=N  faults: retry attempts per request (default 3)\n"
    "  --bytes=N    cold-start: generated data size (default 8388608)\n"
    "  --buffer-mb=F cold-start: TWCST03 buffer pool MiB (default 16)\n";

/// One closed-loop run of `sequence` (indices into `wl`) against a
/// service configured with `cache_entries`. Returns elapsed seconds;
/// tallies cache hits and answers that differ from `expected`.
double RunZipfLoop(serve::SnapshotCatalog* catalog,
                   const workload::Workload& wl,
                   const std::vector<size_t>& sequence,
                   const std::vector<double>& expected, size_t workers,
                   size_t cache_entries, std::atomic<size_t>* hits,
                   std::atomic<size_t>* mismatches,
                   obs::HistogramSnapshot* latency) {
  serve::ServiceOptions sopt;
  sopt.num_workers = workers;
  sopt.cache_entries = cache_entries;
  serve::EstimateService service(catalog, sopt);

  constexpr size_t kClients = 4;
  std::vector<obs::HistogramSnapshot> client_latency(kClients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < sequence.size(); i += kClients) {
        const size_t query = sequence[i];
        serve::EstimateRequest request;
        request.twig = wl[query].twig;
        request.algorithm = core::Algorithm::kMsh;
        const Clock::time_point sent = Clock::now();
        serve::EstimateResponse response =
            service.SubmitAndWait(std::move(request));
        client_latency[c].Record(NanosSince(sent));
        if (!response.status.ok()) continue;
        if (response.cached) hits->fetch_add(1, std::memory_order_relaxed);
        // Bit-identical, not approximately equal: a cache hit is the
        // stored double, a compute is deterministic on one snapshot.
        if (response.estimate != expected[query]) {
          mismatches->fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = SecondsSince(start);
  service.Shutdown(/*drain=*/true);
  for (const obs::HistogramSnapshot& h : client_latency) latency->Merge(h);
  return seconds;
}

int RunZipf(size_t count, size_t workers) {
  exp::Dataset ds = exp::MakeDataset(exp::DatasetKind::kDblp,
                                     exp::kDefaultDblpBytes, 20010402);
  workload::WorkloadOptions wopt;
  wopt.num_queries = 200;
  wopt.seed = 1789;
  const workload::Workload wl = workload::GeneratePositive(ds.tree, wopt);

  serve::SnapshotCatalog catalog;
  catalog.Publish(exp::BuildCstAtFraction(ds, 0.01), "dblp @ 1%");
  const auto snapshot = catalog.Current();

  // Ground truth: the direct estimator on the same snapshot.
  core::TwigEstimator direct(snapshot->summary.get());
  std::vector<double> expected(wl.size());
  for (size_t i = 0; i < wl.size(); ++i) {
    expected[i] = direct.Estimate(wl[i].twig, core::Algorithm::kMsh);
  }

  // A fixed Zipf(s=1.1) sequence over query ranks: a few hot queries
  // dominate, the tail keeps the cache honest. Both runs replay the
  // identical sequence.
  std::vector<double> weights(wl.size());
  for (size_t rank = 0; rank < wl.size(); ++rank) {
    weights[rank] = 1.0 / std::pow(static_cast<double>(rank + 1), 1.1);
  }
  std::mt19937_64 rng(424242);
  std::discrete_distribution<size_t> zipf(weights.begin(), weights.end());
  std::vector<size_t> sequence(count);
  for (size_t& index : sequence) index = zipf(rng);

  std::printf("== Zipf workload, result cache on vs off (%zu requests, "
              "%zu workers, 4 clients) ==\n",
              count, workers);
  std::atomic<size_t> uncached_hits{0}, uncached_mismatches{0};
  obs::HistogramSnapshot uncached_latency;
  const double uncached_seconds =
      RunZipfLoop(&catalog, wl, sequence, expected, workers,
                  /*cache_entries=*/0, &uncached_hits, &uncached_mismatches,
                  &uncached_latency);
  std::atomic<size_t> cached_hits{0}, cached_mismatches{0};
  obs::HistogramSnapshot cached_latency;
  const double cached_seconds =
      RunZipfLoop(&catalog, wl, sequence, expected, workers,
                  /*cache_entries=*/4096, &cached_hits, &cached_mismatches,
                  &cached_latency);

  const double n = static_cast<double>(count);
  std::printf("  uncached: %8.0f req/s (%zu mismatches)\n",
              n / uncached_seconds, uncached_mismatches.load());
  std::printf("  cached:   %8.0f req/s, %zu hits (%zu mismatches)\n",
              n / cached_seconds, cached_hits.load(),
              cached_mismatches.load());
  PrintLatencyLine("uncached", uncached_latency);
  PrintLatencyLine("cached", cached_latency);
  const double speedup = uncached_seconds / cached_seconds;
  std::printf("  speedup: %.2fx\n", speedup);
  const bool ok = uncached_mismatches.load() == 0 &&
                  cached_mismatches.load() == 0 && cached_hits.load() > 0;
  if (!ok) std::printf("  FAILED: cache served a wrong or zero answer\n");
  return ok ? 0 : 1;
}

/// Tallies for one goodput run (4 closed-loop clients, merged).
struct FaultTally {
  std::atomic<size_t> ok{0};
  std::atomic<size_t> failed{0};
  std::atomic<size_t> retried{0};
  std::atomic<size_t> mismatches{0};
};

/// One closed-loop run of `count` requests against `catalog` with the
/// serve/estimate failpoint armed; `policy` nullptr = no retry.
double RunFaultLoop(serve::SnapshotCatalog* catalog,
                    const workload::Workload& wl,
                    const std::vector<double>& expected, size_t count,
                    size_t workers, serve::RetryPolicy* policy,
                    FaultTally* tally) {
  serve::ServiceOptions sopt;
  sopt.num_workers = workers;
  serve::EstimateService service(catalog, sopt);

  constexpr size_t kClients = 4;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < count; i += kClients) {
        const size_t query = i % wl.size();
        for (int attempt = 1;; ++attempt) {
          serve::EstimateRequest request;
          request.twig = wl[query].twig;
          request.algorithm = core::Algorithm::kMsh;
          serve::EstimateResponse response =
              service.SubmitAndWait(std::move(request));
          if (response.status.ok()) {
            tally->ok.fetch_add(1, std::memory_order_relaxed);
            if (response.estimate != expected[query]) {
              tally->mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            if (policy != nullptr) policy->RecordSuccess();
            break;
          }
          const std::optional<std::chrono::milliseconds> backoff =
              policy == nullptr
                  ? std::nullopt
                  : policy->NextBackoff(response.status, attempt,
                                        Clock::time_point::max(),
                                        response.retry_after);
          if (!backoff.has_value()) {
            tally->failed.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          tally->retried.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(*backoff);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = SecondsSince(start);
  service.Shutdown(/*drain=*/true);
  return seconds;
}

int RunFaults(size_t count, size_t workers, double fault_rate,
              size_t retries) {
  exp::Dataset ds = exp::MakeDataset(exp::DatasetKind::kDblp,
                                     exp::kDefaultDblpBytes, 20010402);
  workload::WorkloadOptions wopt;
  wopt.num_queries = 200;
  wopt.seed = 1789;
  const workload::Workload wl = workload::GeneratePositive(ds.tree, wopt);

  serve::SnapshotCatalog catalog;
  catalog.Publish(exp::BuildCstAtFraction(ds, 0.01), "dblp @ 1%");
  const auto snapshot = catalog.Current();
  core::TwigEstimator direct(snapshot->summary.get());
  std::vector<double> expected(wl.size());
  for (size_t i = 0; i < wl.size(); ++i) {
    expected[i] = direct.Estimate(wl[i].twig, core::Algorithm::kMsh);
  }

  char spec[64];
  std::snprintf(spec, sizeof(spec), "error:%g", fault_rate);
  if (Status status =
          util::FailpointRegistry::Get().Configure("serve/estimate", spec);
      !status.ok()) {
    std::fprintf(stderr, "bench_serve: --faults: %s\n",
                 status.ToString().c_str());
    return 2;
  }

  std::printf("== Goodput under injected faults (serve/estimate=error:%g, "
              "%zu requests, %zu workers, 4 clients) ==\n",
              fault_rate, count, workers);
  FaultTally bare;
  const double bare_seconds = RunFaultLoop(&catalog, wl, expected, count,
                                           workers, nullptr, &bare);
  serve::RetryOptions ropt;
  ropt.max_attempts = static_cast<int>(retries) + 1;
  serve::RetryPolicy policy(ropt);
  FaultTally retried;
  const double retry_seconds = RunFaultLoop(&catalog, wl, expected, count,
                                            workers, &policy, &retried);
  util::FailpointRegistry::Get().Reset();

  const double n = static_cast<double>(count);
  const double bare_goodput = static_cast<double>(bare.ok.load()) / n;
  const double retry_goodput = static_cast<double>(retried.ok.load()) / n;
  std::printf("  no retry:  %8.0f req/s | goodput %6.2f%% (%zu failed)\n",
              n / bare_seconds, 100 * bare_goodput, bare.failed.load());
  std::printf("  retry x%zu:  %8.0f req/s | goodput %6.2f%% (%zu failed, "
              "%zu retries)\n",
              retries, n / retry_seconds, 100 * retry_goodput,
              retried.failed.load(), retried.retried.load());
  const size_t mismatches = bare.mismatches.load() + retried.mismatches.load();
  if (mismatches > 0) {
    std::printf("  FAILED: %zu served answers differed from direct\n",
                mismatches);
    return 1;
  }
  // The acceptance bar: with retry enabled, a 10%% fault rate must not
  // cost more than 10%% goodput. Higher injected rates are exploratory.
  if (fault_rate <= 0.1 && retry_goodput < 0.9) {
    std::printf("  FAILED: goodput %.2f%% < 90%% with retry enabled\n",
                100 * retry_goodput);
    return 1;
  }
  return 0;
}

// ------------------------------------------------------ tenant fairness

/// Weighted tenants under saturating closed-loop load: every tenant
/// keeps the shared queue non-empty, so the deficit-round-robin drain
/// should divide worker time in proportion to weight. Reports each
/// tenant's throughput share against its weighted entitlement plus
/// client-observed latency percentiles; the fairness ratio is
/// min(observed share / entitled share) across tenants — 1.0 is a
/// perfect weight-proportional split.
int RunTenants(size_t count, size_t workers) {
  exp::Dataset ds = exp::MakeDataset(exp::DatasetKind::kDblp,
                                     exp::kDefaultDblpBytes, 20010402);
  workload::WorkloadOptions wopt;
  wopt.num_queries = 200;
  wopt.seed = 1789;
  const workload::Workload wl = workload::GeneratePositive(ds.tree, wopt);

  serve::SnapshotCatalog catalog;
  catalog.Publish(exp::BuildCstAtFraction(ds, 0.01), "dblp @ 1%");

  struct TenantSpec {
    const char* name;
    double weight;
  };
  constexpr TenantSpec kTenants[] = {
      {"gold", 4}, {"silver", 2}, {"bronze", 1}};
  constexpr size_t kNumTenants = sizeof(kTenants) / sizeof(kTenants[0]);
  double weight_sum = 0;
  serve::ServiceOptions sopt;
  sopt.num_workers = workers;
  sopt.queue_capacity = 64;
  sopt.cache_entries = 0;  // every request does real work
  for (const TenantSpec& t : kTenants) {
    serve::TenantQuota quota;
    quota.rate = 0;  // unlimited: isolate the DRR weight split
    quota.burst = 8;
    quota.weight = t.weight;
    sopt.tenants.overrides[t.name] = quota;
    weight_sum += t.weight;
  }
  serve::EstimateService service(&catalog, sopt);

  // Identical client pressure per tenant; only the weights differ, so
  // any throughput skew is the queue's doing.
  constexpr size_t kClientsPerTenant = 8;
  std::atomic<size_t> total{0};
  std::atomic<bool> stop{false};
  std::atomic<size_t> served[kNumTenants] = {};
  std::atomic<size_t> errors[kNumTenants] = {};
  std::vector<obs::HistogramSnapshot> latency(kNumTenants *
                                              kClientsPerTenant);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kNumTenants; ++t) {
    for (size_t c = 0; c < kClientsPerTenant; ++c) {
      clients.emplace_back([&, t, c] {
        size_t i = (t * kClientsPerTenant + c) * 31;
        while (!stop.load(std::memory_order_relaxed)) {
          serve::EstimateRequest request;
          request.twig = wl[i++ % wl.size()].twig;
          request.algorithm = core::Algorithm::kMsh;
          request.tenant = kTenants[t].name;
          const Clock::time_point sent = Clock::now();
          serve::EstimateResponse response =
              service.SubmitAndWait(std::move(request));
          if (response.status.ok()) {
            latency[t * kClientsPerTenant + c].Record(NanosSince(sent));
            served[t].fetch_add(1, std::memory_order_relaxed);
          } else {
            errors[t].fetch_add(1, std::memory_order_relaxed);
          }
          if (total.fetch_add(1, std::memory_order_relaxed) + 1 >= count) {
            stop.store(true, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  for (std::thread& th : clients) th.join();
  const double seconds = SecondsSince(start);
  service.Shutdown(/*drain=*/true);

  size_t total_served = 0;
  for (size_t t = 0; t < kNumTenants; ++t) total_served += served[t].load();
  std::printf("== Tenant fairness (weights 4:2:1, %zu workers, %zu "
              "closed-loop clients per tenant, %zu requests) ==\n",
              workers, kClientsPerTenant, count);
  std::printf("  %-8s %7s %9s %8s %8s %10s %10s %10s\n", "tenant", "weight",
              "served", "share", "ideal", "p50 us", "p95 us", "p99 us");
  double fairness = 1e30;
  for (size_t t = 0; t < kNumTenants; ++t) {
    obs::HistogramSnapshot merged;
    for (size_t c = 0; c < kClientsPerTenant; ++c) {
      merged.Merge(latency[t * kClientsPerTenant + c]);
    }
    const obs::LatencyPercentiles p = obs::SummarizeLatency(merged);
    const double share = total_served == 0
                             ? 0
                             : static_cast<double>(served[t].load()) /
                                   static_cast<double>(total_served);
    const double ideal = kTenants[t].weight / weight_sum;
    fairness = std::min(fairness, share / ideal);
    std::printf("  %-8s %7.0f %9zu %7.1f%% %7.1f%% %10.1f %10.1f %10.1f\n",
                kTenants[t].name, kTenants[t].weight, served[t].load(),
                100 * share, 100 * ideal, p.p50_us, p.p95_us, p.p99_us);
  }
  std::printf("  throughput: %.0f req/s aggregate\n",
              static_cast<double>(total_served) / seconds);
  std::printf("  fairness ratio (min observed/entitled share): %.2f\n",
              fairness);
  size_t total_errors = 0;
  for (size_t t = 0; t < kNumTenants; ++t) total_errors += errors[t].load();
  if (total_errors > 0) {
    std::printf("  note: %zu requests rejected (queue full under burst)\n",
                total_errors);
  }
  // Loose acceptance bar — this is a benchmark, not a unit test, but a
  // tenant landing under half its entitlement means the weighted drain
  // is not doing its job.
  if (fairness < 0.5) {
    std::printf("  FAILED: fairness ratio %.2f < 0.5\n", fairness);
    return 1;
  }
  return 0;
}

// ----------------------------------------------------------- cold start

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return static_cast<bool>(out);
}

/// Time-to-first-answer from one TWCST03 store on disk: the
/// materializing path (read the file, Cst::Deserialize every page,
/// answer) versus the paged path (mmap, pin the handful of pages one
/// walk touches, answer). The paged path's advantage grows with store
/// size — it does O(query) work where deserialization does O(store).
int RunColdStart(size_t bytes, double buffer_mb) {
  exp::Dataset ds = exp::MakeDataset(exp::DatasetKind::kDblp, bytes,
                                     20010402);
  workload::WorkloadOptions wopt;
  wopt.num_queries = 8;
  wopt.seed = 1789;
  const workload::Workload wl = workload::GeneratePositive(ds.tree, wopt);

  // Full (unpruned) summary: the store scales with the data, which is
  // the regime where paging pays — deserialization is O(store), the
  // paged first answer is O(pages one walk touches).
  const cst::Cst memory = exp::BuildCstAtFraction(ds, 1.0);
  auto store = memory.SerializePaged();
  if (!store.ok()) {
    std::printf("FAILED: %s\n", store.status().ToString().c_str());
    return 1;
  }
  const std::string path = TempPath("bench_serve_cold.twcst03");
  if (!WriteFile(path, store.value())) {
    std::printf("FAILED: cannot write the store under $TMPDIR\n");
    return 1;
  }
  std::printf("== cold start: time to first answer (data %s, TWCST03 "
              "store %s) ==\n",
              HumanBytes(xml::XmlByteSize(ds.tree)).c_str(),
              HumanBytes(store.value().size()).c_str());

  const size_t pool_bytes =
      static_cast<size_t>(buffer_mb * 1024.0 * 1024.0);
  constexpr int kTrials = 5;
  double parse_seconds = 1e30;
  double paged_seconds = 1e30;
  double parse_answer = 0;
  double paged_answer = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    {
      const Clock::time_point start = Clock::now();
      std::ifstream in(path, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      auto cst = cst::Cst::Deserialize(buffer.str());
      if (!cst.ok()) {
        std::printf("FAILED: %s\n", cst.status().ToString().c_str());
        return 1;
      }
      const core::TwigEstimator estimator(&cst.value());
      parse_answer = estimator.Estimate(wl[0].twig, core::Algorithm::kMsh);
      parse_seconds = std::min(parse_seconds, SecondsSince(start));
    }
    {
      const Clock::time_point start = Clock::now();
      cst::PagedCstOptions popt;
      popt.pool_bytes = pool_bytes;
      auto paged = cst::PagedCst::OpenFile(path, popt);
      if (!paged.ok()) {
        std::printf("FAILED: %s\n", paged.status().ToString().c_str());
        return 1;
      }
      const core::TwigEstimator estimator(paged.value().get());
      paged_answer = estimator.Estimate(wl[0].twig, core::Algorithm::kMsh);
      paged_seconds = std::min(paged_seconds, SecondsSince(start));
    }
  }
  std::remove(path.c_str());

  std::printf("  Deserialize (materialize whole store): %9.3f ms to first "
              "answer\n",
              1e3 * parse_seconds);
  std::printf("  mmap + page-in:                        %9.3f ms to first "
              "answer (buffer %.1f MiB)\n",
              1e3 * paged_seconds, buffer_mb);
  std::printf("  speedup: %.1fx\n", parse_seconds / paged_seconds);
  if (parse_answer != paged_answer) {
    std::printf("  FAILED: paged answer %.17g != parsed %.17g\n",
                paged_answer, parse_answer);
    return 1;
  }
  std::printf("  answers bit-identical: %.6g\n", parse_answer);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool zipf = false;
  bool tenants = false;
  bool cold_start = false;
  double faults = 0;
  size_t zipf_count = 20000;
  size_t zipf_workers = 2;
  size_t retries = 3;
  size_t cold_bytes = 8 * 1024 * 1024;
  double buffer_mb = 16;
  util::FlagParser flags("bench_serve", kUsage);
  flags.Bool("zipf", &zipf);
  flags.Bool("tenants", &tenants);
  flags.Bool("cold-start", &cold_start);
  flags.Double("faults", &faults);
  flags.Size("count", &zipf_count);
  flags.Size("workers", &zipf_workers);
  flags.Size("retries", &retries);
  flags.Size("bytes", &cold_bytes);
  flags.Double("buffer-mb", &buffer_mb);
  if (int code = flags.Parse(argc, argv); code >= 0) return code;
  if (faults < 0 || faults > 1) {
    std::fprintf(stderr, "bench_serve: --faults must be in [0, 1]\n");
    return 2;
  }
  if (cold_start) return RunColdStart(cold_bytes, buffer_mb);
  if (tenants) {
    return RunTenants(zipf_count, std::max<size_t>(1, zipf_workers));
  }
  if (zipf) return RunZipf(zipf_count, std::max<size_t>(1, zipf_workers));
  if (faults > 0) {
    return RunFaults(zipf_count, std::max<size_t>(1, zipf_workers), faults,
                     retries);
  }
  exp::Dataset ds = exp::MakeDataset(exp::DatasetKind::kDblp,
                                     exp::kDefaultDblpBytes, 20010402);
  workload::WorkloadOptions wopt;
  wopt.num_queries = 200;
  wopt.seed = 1789;
  const workload::Workload wl = workload::GeneratePositive(ds.tree, wopt);

  serve::SnapshotCatalog catalog;
  catalog.Publish(exp::BuildCstAtFraction(ds, 0.01), "dblp @ 1%");
  const std::shared_ptr<const serve::CstSnapshot> snapshot = catalog.Current();

  constexpr size_t kRounds = 10;  // passes over the workload per run

  // -- 1. Baseline: the estimator with no serving machinery around it.
  core::TwigEstimator direct(snapshot->summary.get());
  obs::HistogramSnapshot direct_latency;
  Clock::time_point start = Clock::now();
  for (size_t round = 0; round < kRounds; ++round) {
    for (const auto& wq : wl) {
      const Clock::time_point sent = Clock::now();
      direct.Estimate(wq.twig, core::Algorithm::kMsh);
      direct_latency.Record(NanosSince(sent));
    }
  }
  const double direct_seconds = SecondsSince(start);
  const size_t total = kRounds * wl.size();
  std::printf("== Direct estimator baseline (MSH, 1%% space) ==\n");
  std::printf("  %zu estimates in %.3f s: %.0f/s, %.1f us each\n", total,
              direct_seconds, static_cast<double>(total) / direct_seconds,
              1e6 * direct_seconds / static_cast<double>(total));
  PrintLatencyLine("direct", direct_latency);
  std::printf("\n");

  // -- 2. Served, closed loop: sweep the worker count. Request latency
  // is the client-observed submit-to-response time (queue wait +
  // execution + hand-off), per-client histograms merged after the run.
  std::printf("== Served throughput (closed loop, 4 client threads) ==\n");
  std::printf("  %-8s %10s %12s %12s %12s %12s\n", "workers", "req/s",
              "vs direct", "p50 us", "p95 us", "p99 us");
  for (size_t workers : {1, 2, 4}) {
    serve::ServiceOptions sopt;
    sopt.num_workers = workers;
    serve::EstimateService service(&catalog, sopt);

    constexpr size_t kClients = 4;
    std::vector<obs::HistogramSnapshot> client_latency(kClients);
    start = Clock::now();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = c; i < kRounds * wl.size(); i += kClients) {
          serve::EstimateRequest request;
          request.twig = wl[i % wl.size()].twig;
          request.algorithm = core::Algorithm::kMsh;
          const Clock::time_point sent = Clock::now();
          serve::EstimateResponse response =
              service.SubmitAndWait(std::move(request));
          if (response.status.ok()) {
            client_latency[c].Record(NanosSince(sent));
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double served_seconds = SecondsSince(start);
    service.Shutdown(/*drain=*/true);

    obs::HistogramSnapshot latency;
    for (const obs::HistogramSnapshot& h : client_latency) latency.Merge(h);
    const obs::LatencyPercentiles p = obs::SummarizeLatency(latency);
    std::printf("  %-8zu %10.0f %11.2fx %12.1f %12.1f %12.1f\n", workers,
                static_cast<double>(total) / served_seconds,
                served_seconds / direct_seconds, p.p50_us, p.p95_us,
                p.p99_us);
  }

  // -- 3. Overload: open-loop burst past the queue, count the split.
  std::printf("\n== Overload (open loop, queue capacity 64, 1 worker) ==\n");
  serve::ServiceOptions sopt;
  sopt.num_workers = 1;
  sopt.queue_capacity = 64;
  serve::EstimateService service(&catalog, sopt);
  std::vector<std::future<serve::EstimateResponse>> in_flight;
  in_flight.reserve(4 * wl.size());
  for (size_t i = 0; i < 4 * wl.size(); ++i) {
    serve::EstimateRequest request;
    request.twig = wl[i % wl.size()].twig;
    in_flight.push_back(service.Submit(std::move(request)));
  }
  size_t served = 0, rejected = 0;
  for (auto& f : in_flight) {
    serve::EstimateResponse response = f.get();
    if (response.status.ok()) {
      ++served;
    } else {
      ++rejected;
    }
  }
  service.Shutdown(/*drain=*/true);
  std::printf("  %zu submitted: %zu served, %zu rejected (every request "
              "answered)\n",
              in_flight.size(), served, rejected);
  return 0;
}
