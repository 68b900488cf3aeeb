// Serving-layer benchmark (DESIGN.md §10): what does putting the
// estimator behind the snapshot catalog + fair queue + worker pool
// cost, and how does the queue behave at and past saturation?
//
// Every served mode shares one fixture (DBLP 8 MiB, 200 positive
// twigs, a 1% snapshot, the direct estimator's answers) and one
// closed-loop load generator, RunClosedLoop: the client threads of a
// util::ThreadPool claim request indices through ParallelFor, each
// waiting for its answer before claiming the next, so every request is
// sent exactly once. Every ok answer is compared bit for bit with the
// direct estimator; any mismatch fails the run.
//
//   default      direct baseline, served worker sweep, open-loop
//                overload burst (every request answered)
//   --zipf       one Zipf-skewed sequence, result cache off vs on
//   --faults=P   goodput at fault rate P, bare vs with client retry
//   --tenants    weighted tenants under saturating load: fairness
//   --cold-start time to first answer from one TWCST03 file

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <random>
#include <sstream>
#include <string>
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
#include "util/thread_pool.h"

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

/// The fixture every served mode shares: DBLP 8 MiB (seed 20010402),
/// 200 positive twigs (seed 1789), a 1% snapshot, and the direct
/// estimator's MSH answer per twig — the reference every served answer
/// must equal bit for bit (a cache hit is the stored double, a compute
/// is deterministic on one snapshot).
struct Fixture {
  Fixture()
      : ds(exp::MakeDataset(exp::DatasetKind::kDblp,
                            exp::kDefaultDblpBytes, 20010402)) {
    workload::WorkloadOptions wopt;
    wopt.num_queries = 200;
    wopt.seed = 1789;
    wl = workload::GeneratePositive(ds.tree, wopt);
    catalog.Publish(exp::BuildCstAtFraction(ds, 0.01), "dblp @ 1%");
    const core::TwigEstimator direct(catalog.Current()->summary.get());
    for (const workload::WorkloadQuery& wq : wl) {
      expected.push_back(direct.Estimate(wq.twig, core::Algorithm::kMsh));
    }
  }

  /// Request i of a `count`-request run asks query i mod 200.
  std::vector<size_t> Cycle(size_t count) const {
    std::vector<size_t> sequence(count);
    for (size_t i = 0; i < count; ++i) sequence[i] = i % wl.size();
    return sequence;
  }

  exp::Dataset ds;
  workload::Workload wl;
  serve::SnapshotCatalog catalog;
  std::vector<double> expected;
};

/// One client's tallies from a closed-loop run.
struct Tally {
  size_t ok = 0;
  size_t failed = 0;  // final answer not ok, retries included
  size_t retries = 0;
  size_t hits = 0;        // ok answers served from the result cache
  size_t mismatches = 0;  // ok answers that differ from the reference
  obs::HistogramSnapshot latency;  // first send to ok answer

  void Merge(const Tally& other) {
    ok += other.ok;
    failed += other.failed;
    retries += other.retries;
    hits += other.hits;
    mismatches += other.mismatches;
    latency.Merge(other.latency);
  }
};

/// What RunClosedLoop sends: request i estimates wl[sequence[i]] (MSH).
struct Load {
  std::vector<size_t> sequence;
  size_t clients = 4;
  /// Client c bills tenants[c % tenants.size()]; empty = default.
  std::vector<std::string> tenants;
  /// Retries failed requests; nullptr = one attempt each.
  serve::RetryPolicy* retry = nullptr;
};

struct Run {
  double seconds = 0;
  std::vector<Tally> clients;  // indexed by client

  Tally Total() const {
    Tally total;
    for (const Tally& t : clients) total.Merge(t);
    return total;
  }
};

/// The one load generator: `load.clients` threads of a util::ThreadPool
/// claim request indices through ParallelFor against a fresh service
/// built from `sopt`. Each client waits for its answer (retries
/// included) before claiming the next index, and the call returns once
/// every request has its final answer.
Run RunClosedLoop(Fixture& fx, const serve::ServiceOptions& sopt,
                  const Load& load) {
  serve::EstimateService service(&fx.catalog, sopt);
  util::ThreadPool clients(load.clients);
  Run run;
  run.clients.resize(load.clients);
  const Clock::time_point start = Clock::now();
  clients.ParallelFor(load.sequence.size(), [&](size_t i, size_t client) {
    Tally& tally = run.clients[client];
    const size_t query = load.sequence[i];
    serve::EstimateResponse response;
    const Clock::time_point sent = Clock::now();
    tally.retries += serve::RetryLoop(
        load.retry, Clock::time_point::max(), [&] {
          serve::EstimateRequest request;
          request.twig = fx.wl[query].twig;
          request.algorithm = core::Algorithm::kMsh;
          if (!load.tenants.empty()) {
            request.tenant = load.tenants[client % load.tenants.size()];
          }
          response = service.SubmitAndWait(std::move(request));
          return serve::AttemptResult{response.status,
                                      response.retry_after};
        });
    if (!response.status.ok()) {
      ++tally.failed;
      return;
    }
    tally.latency.Record(NanosSince(sent));
    ++tally.ok;
    if (response.cached) ++tally.hits;
    if (response.estimate != fx.expected[query]) ++tally.mismatches;
  });
  run.seconds = SecondsSince(start);
  service.Shutdown(/*drain=*/true);
  return run;
}

/// Prints the answer check shared by every served mode; false when
/// any ok answer differed from the direct estimator.
bool CheckAnswers(const Tally& total) {
  std::printf("  answers: %zu ok, %zu failed, %zu mismatches vs direct\n",
              total.ok, total.failed, total.mismatches);
  if (total.mismatches == 0) return true;
  std::printf("  FAILED: %zu served answers differed from direct\n",
              total.mismatches);
  return false;
}

int RunSweep(Fixture& fx) {
  constexpr size_t kRounds = 10;  // passes over the workload per run

  // -- 1. Baseline: the estimator with no serving machinery around it.
  const core::TwigEstimator direct(fx.catalog.Current()->summary.get());
  obs::HistogramSnapshot direct_latency;
  const Clock::time_point start = Clock::now();
  for (size_t round = 0; round < kRounds; ++round) {
    for (const workload::WorkloadQuery& wq : fx.wl) {
      const Clock::time_point sent = Clock::now();
      direct.Estimate(wq.twig, core::Algorithm::kMsh);
      direct_latency.Record(NanosSince(sent));
    }
  }
  const double direct_seconds = SecondsSince(start);
  const size_t total = kRounds * fx.wl.size();
  std::printf("== Direct estimator baseline (MSH, 1%% space) ==\n");
  std::printf("  %zu estimates in %.3f s: %.0f/s, %.1f us each\n", total,
              direct_seconds, static_cast<double>(total) / direct_seconds,
              1e6 * direct_seconds / static_cast<double>(total));
  PrintLatencyLine("direct", direct_latency);
  std::printf("\n");

  // -- 2. Served, closed loop: sweep the worker count. Request latency
  // is the client-observed submit-to-response time (queue wait +
  // execution + hand-off).
  std::printf("== Served throughput (closed loop, 4 client threads) ==\n");
  std::printf("  %-8s %10s %12s %12s %12s %12s\n", "workers", "req/s",
              "vs direct", "p50 us", "p95 us", "p99 us");
  Load load;
  load.sequence = fx.Cycle(total);
  Tally served;
  for (size_t workers : {1, 2, 4}) {
    serve::ServiceOptions sopt;
    sopt.num_workers = workers;
    const Run run = RunClosedLoop(fx, sopt, load);
    const Tally t = run.Total();
    const obs::LatencyPercentiles p = obs::SummarizeLatency(t.latency);
    std::printf("  %-8zu %10.0f %11.2fx %12.1f %12.1f %12.1f\n", workers,
                static_cast<double>(total) / run.seconds,
                run.seconds / direct_seconds, p.p50_us, p.p95_us, p.p99_us);
    served.Merge(t);
  }

  // -- 3. Overload: open-loop burst past the queue, count the split.
  std::printf("\n== Overload (open loop, queue capacity 64, 1 worker) ==\n");
  serve::ServiceOptions sopt;
  sopt.num_workers = 1;
  sopt.queue_capacity = 64;
  serve::EstimateService service(&fx.catalog, sopt);
  std::vector<std::future<serve::EstimateResponse>> in_flight;
  const std::vector<size_t> burst = fx.Cycle(4 * fx.wl.size());
  for (size_t query : burst) {
    serve::EstimateRequest request;
    request.twig = fx.wl[query].twig;
    in_flight.push_back(service.Submit(std::move(request)));
  }
  Tally overload;
  for (size_t i = 0; i < burst.size(); ++i) {
    const serve::EstimateResponse response = in_flight[i].get();
    if (!response.status.ok()) {
      ++overload.failed;
      continue;
    }
    ++overload.ok;
    if (response.estimate != fx.expected[burst[i]]) ++overload.mismatches;
  }
  service.Shutdown(/*drain=*/true);
  std::printf("  %zu submitted: %zu served, %zu rejected (every request "
              "answered)\n",
              burst.size(), overload.ok, overload.failed);
  served.Merge(overload);
  return CheckAnswers(served) ? 0 : 1;
}

int RunZipf(Fixture& fx, size_t count, size_t workers) {
  // A fixed Zipf(s=1.1) sequence over query ranks: a few hot queries
  // dominate, the tail keeps the cache honest. Both runs replay the
  // identical sequence.
  std::vector<double> weights(fx.wl.size());
  for (size_t rank = 0; rank < fx.wl.size(); ++rank) {
    weights[rank] = 1.0 / std::pow(static_cast<double>(rank + 1), 1.1);
  }
  std::mt19937_64 rng(424242);
  std::discrete_distribution<size_t> zipf(weights.begin(), weights.end());
  Load load;
  load.sequence.resize(count);
  for (size_t& index : load.sequence) index = zipf(rng);

  std::printf("== Zipf workload, result cache on vs off (%zu requests, "
              "%zu workers, 4 clients) ==\n",
              count, workers);
  serve::ServiceOptions sopt;
  sopt.num_workers = workers;
  sopt.cache_entries = 0;
  const Run uncached_run = RunClosedLoop(fx, sopt, load);
  sopt.cache_entries = 4096;
  const Run cached_run = RunClosedLoop(fx, sopt, load);
  const Tally uncached = uncached_run.Total();
  const Tally cached = cached_run.Total();

  const double n = static_cast<double>(count);
  std::printf("  uncached: %8.0f req/s (%zu mismatches)\n",
              n / uncached_run.seconds, uncached.mismatches);
  std::printf("  cached:   %8.0f req/s, %zu hits (%zu mismatches)\n",
              n / cached_run.seconds, cached.hits, cached.mismatches);
  PrintLatencyLine("uncached", uncached.latency);
  PrintLatencyLine("cached", cached.latency);
  std::printf("  speedup: %.2fx\n", uncached_run.seconds / cached_run.seconds);
  Tally both = uncached;
  both.Merge(cached);
  const bool answers_ok = CheckAnswers(both);
  if (cached.hits == 0) std::printf("  FAILED: the cache served no hits\n");
  return answers_ok && cached.hits > 0 ? 0 : 1;
}

int RunFaults(Fixture& fx, size_t count, size_t workers, double fault_rate,
              size_t retries) {
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
  serve::ServiceOptions sopt;
  sopt.num_workers = workers;
  Load load;
  load.sequence = fx.Cycle(count);
  const Run bare_run = RunClosedLoop(fx, sopt, load);
  serve::RetryOptions ropt;
  ropt.max_attempts = static_cast<int>(retries) + 1;
  serve::RetryPolicy policy(ropt);
  load.retry = &policy;
  const Run retry_run = RunClosedLoop(fx, sopt, load);
  util::FailpointRegistry::Get().Reset();
  const Tally bare = bare_run.Total();
  const Tally retried = retry_run.Total();

  const double n = static_cast<double>(count);
  const double bare_goodput = static_cast<double>(bare.ok) / n;
  const double retry_goodput = static_cast<double>(retried.ok) / n;
  std::printf("  no retry:  %8.0f req/s | goodput %6.2f%% (%zu failed)\n",
              n / bare_run.seconds, 100 * bare_goodput, bare.failed);
  std::printf("  retry x%zu:  %8.0f req/s | goodput %6.2f%% (%zu failed, "
              "%zu retries)\n",
              retries, n / retry_run.seconds, 100 * retry_goodput,
              retried.failed, retried.retries);
  Tally both = bare;
  both.Merge(retried);
  if (!CheckAnswers(both)) return 1;
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
int RunTenants(Fixture& fx, size_t count, size_t workers) {
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
  // Identical client pressure per tenant; only the weights differ, so
  // any throughput skew is the queue's doing.
  constexpr size_t kClientsPerTenant = 8;
  Load load;
  load.sequence = fx.Cycle(count);
  load.clients = kNumTenants * kClientsPerTenant;
  for (const TenantSpec& t : kTenants) {
    serve::TenantQuota quota;
    quota.rate = 0;  // unlimited: isolate the DRR weight split
    quota.burst = 8;
    quota.weight = t.weight;
    sopt.tenants.overrides[t.name] = quota;
    weight_sum += t.weight;
    load.tenants.push_back(t.name);
  }
  const Run run = RunClosedLoop(fx, sopt, load);

  // Client c billed tenant c % kNumTenants.
  Tally per_tenant[kNumTenants];
  for (size_t c = 0; c < run.clients.size(); ++c) {
    per_tenant[c % kNumTenants].Merge(run.clients[c]);
  }
  const Tally total = run.Total();
  std::printf("== Tenant fairness (weights 4:2:1, %zu workers, %zu "
              "closed-loop clients per tenant, %zu requests) ==\n",
              workers, kClientsPerTenant, count);
  std::printf("  %-8s %7s %9s %8s %8s %10s %10s %10s\n", "tenant", "weight",
              "served", "share", "ideal", "p50 us", "p95 us", "p99 us");
  double fairness = 1e30;
  for (size_t t = 0; t < kNumTenants; ++t) {
    const obs::LatencyPercentiles p =
        obs::SummarizeLatency(per_tenant[t].latency);
    const double share = total.ok == 0
                             ? 0
                             : static_cast<double>(per_tenant[t].ok) /
                                   static_cast<double>(total.ok);
    const double ideal = kTenants[t].weight / weight_sum;
    fairness = std::min(fairness, share / ideal);
    std::printf("  %-8s %7.0f %9zu %7.1f%% %7.1f%% %10.1f %10.1f %10.1f\n",
                kTenants[t].name, kTenants[t].weight, per_tenant[t].ok,
                100 * share, 100 * ideal, p.p50_us, p.p95_us, p.p99_us);
  }
  std::printf("  throughput: %.0f req/s aggregate\n",
              static_cast<double>(total.ok) / run.seconds);
  std::printf("  fairness ratio (min observed/entitled share): %.2f\n",
              fairness);
  if (!CheckAnswers(total)) return 1;
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
  size_t count = 20000;
  size_t workers = 2;
  size_t retries = 3;
  size_t cold_bytes = 8 * 1024 * 1024;
  double buffer_mb = 16;
  util::FlagParser flags("bench_serve", kUsage);
  flags.Bool("zipf", &zipf);
  flags.Bool("tenants", &tenants);
  flags.Bool("cold-start", &cold_start);
  flags.Double("faults", &faults);
  flags.Size("count", &count);
  flags.Size("workers", &workers);
  flags.Size("retries", &retries);
  flags.Size("bytes", &cold_bytes);
  flags.Double("buffer-mb", &buffer_mb);
  if (int code = flags.Parse(argc, argv); code >= 0) return code;
  if (faults < 0 || faults > 1) {
    std::fprintf(stderr, "bench_serve: --faults must be in [0, 1]\n");
    return 2;
  }
  if (cold_start) return RunColdStart(cold_bytes, buffer_mb);
  workers = std::max<size_t>(1, workers);
  Fixture fx;
  if (tenants) return RunTenants(fx, count, workers);
  if (zipf) return RunZipf(fx, count, workers);
  if (faults > 0) return RunFaults(fx, count, workers, faults, retries);
  return RunSweep(fx);
}
