// twig_client: command-line client for twig_serve (DESIGN.md §10).
//
//   ./twig_client --port=7411 --op=ping
//   ./twig_client --port=7411 --op=estimate --query='article(author)'
//   ./twig_client --port=7411 --op=shutdown
//   ./twig_client --port=7411                 # REPL: stdin lines are
//                                             # requests, responses print
//   ./twig_client --port=7411 --bench --count=1000 --threads=4
//                 --swap-at=500               # load + hot swap mid-run
//
// Bench mode drives `count` estimate requests across `threads`
// connections (the workers of a util::ThreadPool), optionally
// triggering a snapshot swap as request `swap-at` goes out, and
// reports served/rejected/deadline-missed totals plus every snapshot
// version observed — the e2e smoke check that a hot swap never drops
// or corrupts in-flight traffic.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "serve/retry.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace {

using namespace twig;

struct Options {
  size_t port = 7411;
  std::string op;
  std::string query;
  std::string algo = "MSH";
  std::string semantics;
  double deadline_ms = 0;
  double space = 0;
  std::string spec;
  bool bench = false;
  size_t count = 1000;
  size_t threads = 4;
  size_t swap_at = 0;
  size_t min_cached = 0;
  size_t retries = 0;
  double retry_base_ms = 2;
  double retry_max_ms = 250;
  std::string dataset;
  std::string tenant;
  size_t idle_conns = 0;
  size_t idle_hold_ms = 1000;
};

/// nullptr when --retries=0: requests are sent exactly once.
std::unique_ptr<serve::RetryPolicy> MakeRetryPolicy(const Options& options) {
  if (options.retries == 0) return nullptr;
  serve::RetryOptions ropt;
  ropt.max_attempts = static_cast<int>(options.retries) + 1;
  ropt.base_backoff = std::chrono::milliseconds(
      static_cast<long long>(std::max(1.0, options.retry_base_ms)));
  ropt.max_backoff = std::chrono::milliseconds(
      static_cast<long long>(std::max(1.0, options.retry_max_ms)));
  return std::make_unique<serve::RetryPolicy>(ropt);
}

constexpr char kUsage[] =
    "usage: twig_client --port=N [--op=NAME ...] [--bench ...]\n"
    "  --port=N         server port on 127.0.0.1 (default 7411)\n"
    "single-shot (one request, prints the response line):\n"
    "  --op=NAME        ping | estimate | explain | metrics | stats |\n"
    "                   recent | swap | health | failpoint | shutdown\n"
    "                   (stats and recent also pretty-print)\n"
    "  --query=TWIG     estimate/explain query\n"
    "  --algo=NAME      Leaf | Greedy | MO | MOSH | PMOSH | MSH\n"
    "  --semantics=S    occurrence | presence\n"
    "  --deadline-ms=F  per-request deadline\n"
    "  --space=F        swap: CST space fraction (0 = server default)\n"
    "  --spec=LIST      failpoint: name=action[:arg] entries to apply;\n"
    "                   empty lists the server's failpoints\n"
    "bench (estimate load across connections):\n"
    "  --bench          enable bench mode\n"
    "  --count=N        total requests (default 1000)\n"
    "  --threads=N      client connections (default 4)\n"
    "  --swap-at=N      trigger a snapshot swap after N requests\n"
    "  --min-cached=N   fail unless at least N responses were cache hits\n"
    "retry (single-shot and bench; transient failures only):\n"
    "  --retries=N      retry Unavailable errors and dropped connections\n"
    "                   up to N times with jittered backoff (default 0)\n"
    "  --retry-base-ms=F first backoff / jitter floor (default 2)\n"
    "  --retry-max-ms=F  backoff ceiling (default 250)\n"
    "multi-dataset / multi-tenant (single-shot and bench):\n"
    "  --dataset=ID     route against this dataset (default \"default\")\n"
    "  --tenant=ID      bill requests to this tenant's quota\n"
    "idle-connection soak:\n"
    "  --idle-conns=N   open N idle connections, hold them, then verify\n"
    "                   the server still answers; exits 0 on success\n"
    "  --idle-hold-ms=N how long to hold the idle herd (default 1000)\n"
    "with neither --op nor --bench, stdin lines are sent as requests.\n";

/// A blocking loopback connection speaking one-line-per-request.
class Connection {
 public:
  ~Connection() { Close(); }

  /// Connects, first dropping any previous socket and half-read reply
  /// (the reconnect after a transport failure).
  Status Open(uint16_t port) {
    Close();
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Internal(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      const int error = errno;
      close(fd);
      return Status::Unavailable(std::string("connect: ") +
                                 std::strerror(error));
    }
    fd_ = fd;
    return Status::OK();
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool is_open() const { return fd_ >= 0; }

  /// Sends `request` (plus newline) and reads one response line.
  Result<std::string> RoundTrip(std::string request) {
    request.push_back('\n');
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = send(fd_, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        return Status::Unavailable(std::string("send: ") +
                                   std::strerror(errno));
      }
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        return Status::Unavailable("server closed the connection");
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string BuildRequest(const Options& options, uint64_t id) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("op");
  w.String(options.op);
  w.Key("id");
  w.Uint(id);
  if (options.op == "estimate" || options.op == "explain") {
    w.Key("query");
    w.String(options.query);
    w.Key("algo");
    w.String(options.algo);
    if (!options.semantics.empty()) {
      w.Key("semantics");
      w.String(options.semantics);
    }
    if (options.deadline_ms > 0) {
      w.Key("deadline_ms");
      w.Double(options.deadline_ms);
    }
  }
  if (options.op == "swap" && options.space > 0) {
    w.Key("space");
    w.Double(options.space);
  }
  if (options.op == "failpoint" && !options.spec.empty()) {
    w.Key("spec");
    w.String(options.spec);
  }
  if (!options.dataset.empty()) {
    w.Key("dataset");
    w.String(options.dataset);
  }
  if (!options.tenant.empty()) {
    w.Key("tenant");
    w.String(options.tenant);
  }
  w.EndObject();
  return std::move(w).str();
}

/// Sends `request` through serve::RetryLoop under `policy` (nullptr =
/// exactly one attempt), opening `conn` first if it is closed. A
/// dropped connection closes it, so the next attempt reconnects and
/// resends; a structured Unavailable error backs off (flooring by the
/// server's retry_after_ms hint) and resends. Definitive answers — ok
/// responses and non-Unavailable errors — end the loop at once; so
/// does the last failure once the policy stops granting retries.
/// Never sleeps past `deadline`. Granted retries bump `retries_used`.
Result<std::string> RoundTripWithRetry(
    Connection* conn, uint16_t port, const std::string& request,
    serve::RetryPolicy* policy,
    std::chrono::steady_clock::time_point deadline,
    std::atomic<size_t>* retries_used) {
  Result<std::string> line = Status::Unavailable("not sent");
  const int retries = serve::RetryLoop(policy, deadline, [&] {
    if (!conn->is_open()) {
      if (Status status = conn->Open(port); !status.ok()) {
        line = status;
        return serve::AttemptResult{status};
      }
    }
    line = conn->RoundTrip(request);
    if (!line.ok()) {
      conn->Close();
      return serve::AttemptResult{line.status()};
    }
    // Anything but a structured Unavailable error is final: an ok
    // answer, a definitive error, or a line that is not the protocol.
    Result<obs::JsonValue> parsed = obs::ParseJson(line.value());
    if (!parsed.ok()) return serve::AttemptResult{parsed.status()};
    if (parsed.value().GetBool("ok")) return serve::AttemptResult{};
    const obs::JsonValue* error = parsed.value().Find("error");
    if (error == nullptr || error->GetString("code") != "Unavailable") {
      return serve::AttemptResult{Status::InvalidArgument("definitive")};
    }
    return serve::AttemptResult{
        Status::Unavailable(std::string(error->GetString("message"))),
        std::chrono::milliseconds(
            static_cast<long long>(error->GetNumber("retry_after_ms")))};
  });
  if (retries_used != nullptr) retries_used->fetch_add(retries);
  return line;
}

/// The retry deadline: --deadline-ms bounds the whole retry sequence
/// client-side, matching the server-side per-attempt deadline.
std::chrono::steady_clock::time_point RetryDeadline(const Options& options) {
  if (options.deadline_ms <= 0) {
    return std::chrono::steady_clock::time_point::max();
  }
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(
             static_cast<long long>(options.deadline_ms));
}

/// Bench tallies: one per client connection, merged after the run.
struct BenchTally {
  size_t sent = 0;
  size_t ok = 0;
  size_t cached = 0;
  size_t transport_errors = 0;
  std::map<std::string, size_t> error_codes;
  std::set<uint64_t> versions;
  /// Every distinct estimate seen per snapshot version. The bench
  /// sends one query, so any version mapping to more than one value
  /// means a cache hit and a fresh compute disagreed — corruption.
  std::map<uint64_t, std::set<double>> version_estimates;

  /// Tallies one estimate round trip's final outcome.
  void Record(const Result<std::string>& line) {
    ++sent;
    Result<obs::JsonValue> parsed =
        line.ok() ? obs::ParseJson(line.value()) : line.status();
    if (!parsed.ok()) {
      ++transport_errors;
      return;
    }
    const obs::JsonValue& response = parsed.value();
    if (response.GetBool("ok")) {
      ++ok;
      if (response.GetBool("cached")) ++cached;
      const auto version =
          static_cast<uint64_t>(response.GetNumber("version"));
      versions.insert(version);
      version_estimates[version].insert(response.GetNumber("estimate"));
    } else if (const obs::JsonValue* error = response.Find("error")) {
      ++error_codes[std::string(error->GetString("code", "?"))];
    } else {
      ++transport_errors;
    }
  }

  void MergeFrom(const BenchTally& other) {
    sent += other.sent;
    ok += other.ok;
    cached += other.cached;
    transport_errors += other.transport_errors;
    for (const auto& [code, n] : other.error_codes) error_codes[code] += n;
    versions.insert(other.versions.begin(), other.versions.end());
    for (const auto& [version, estimates] : other.version_estimates) {
      version_estimates[version].insert(estimates.begin(), estimates.end());
    }
  }
};

/// Sends a swap on its own connection, then 10 estimates on it: with
/// the swap acknowledged, these must be served by the new snapshot
/// version even while pre-swap bench traffic is still in flight.
/// Returns whether the swap landed.
bool SwapMidRun(const Options& options, BenchTally* tally) {
  Connection conn;
  if (!conn.Open(static_cast<uint16_t>(options.port)).ok()) return false;
  Options swap_options = options;
  swap_options.op = "swap";
  Result<std::string> line =
      conn.RoundTrip(BuildRequest(swap_options, options.count + 1));
  if (!line.ok()) return false;
  std::printf("swap: %s\n", line.value().c_str());
  Result<obs::JsonValue> parsed = obs::ParseJson(line.value());
  if (!parsed.ok() || !parsed.value().GetBool("ok")) return false;
  Options estimate_options = options;
  estimate_options.op = "estimate";
  for (size_t i = 0; i < 10; ++i) {
    Result<std::string> post =
        conn.RoundTrip(BuildRequest(estimate_options, options.count + 2 + i));
    if (!post.ok()) return false;
    tally->Record(post);
  }
  return true;
}

int RunBench(const Options& options) {
  const uint16_t port = static_cast<uint16_t>(options.port);
  const size_t threads = std::max<size_t>(1, options.threads);
  Options request_options = options;
  request_options.op = "estimate";
  // One policy across all clients: the retry budget is per-process, so
  // a failing server sees bounded amplification from this client.
  const std::unique_ptr<serve::RetryPolicy> policy = MakeRetryPolicy(options);
  std::atomic<size_t> retries_used{0};
  std::vector<Connection> conns(threads);
  std::vector<BenchTally> tallies(threads);
  bool swap_ok = true;

  // Each pool worker is one client connection, opened on its first
  // request and reopened after a transport failure. The swap goes out
  // from the body that claims request swap_at, so it lands mid-run
  // with estimate traffic in flight, and after the loop when swap_at
  // is past the last request.
  util::ThreadPool clients(threads);
  clients.ParallelFor(options.count, [&](size_t id, size_t client) {
    if (id == options.swap_at && id > 0) {
      swap_ok = SwapMidRun(options, &tallies[client]);
    }
    tallies[client].Record(RoundTripWithRetry(
        &conns[client], port, BuildRequest(request_options, id),
        policy.get(), RetryDeadline(options), &retries_used));
  });
  if (options.swap_at >= options.count && options.swap_at > 0) {
    swap_ok = SwapMidRun(options, &tallies[0]);
  }
  BenchTally total;
  for (const BenchTally& tally : tallies) total.MergeFrom(tally);

  std::printf("bench: %zu sent, %zu ok (%zu cached), %zu transport errors, "
              "%zu retries\n",
              total.sent, total.ok, total.cached, total.transport_errors,
              retries_used.load());
  for (const auto& [code, n] : total.error_codes) {
    std::printf("bench: %zu x %s\n", n, code.c_str());
  }
  std::printf("bench: versions seen:");
  for (uint64_t v : total.versions) {
    std::printf(" %llu", static_cast<unsigned long long>(v));
  }
  std::printf("\n");
  // Cached and computed answers for the same (query, version) must be
  // bit-identical; a version with two distinct estimates is corruption.
  bool estimates_consistent = true;
  for (const auto& [version, estimates] : total.version_estimates) {
    if (estimates.size() > 1) {
      estimates_consistent = false;
      std::printf("bench: version %llu served %zu distinct estimates\n",
                  static_cast<unsigned long long>(version), estimates.size());
    }
  }
  if (options.min_cached > 0 && total.cached < options.min_cached) {
    std::printf("bench: expected >= %zu cache hits, saw %zu\n",
                options.min_cached, total.cached);
    return 1;
  }
  // Failure = broken transport, a swap that didn't land, or cache/
  // compute disagreement; structured rejections (overload, deadline)
  // are expected under load.
  return total.transport_errors == 0 && swap_ok && estimates_consistent &&
                 total.ok > 0
             ? 0
             : 1;
}

/// Renders the `stats` verb as a table: one latency row per active
/// series, then the accuracy window and the recorder occupancy.
void PrettyPrintStats(const obs::JsonValue& response) {
  std::printf("snapshot v%.0f | queue %.0f/%.0f | schema v%.0f\n",
              response.GetNumber("version"),
              response.GetNumber("queue_depth"),
              response.GetNumber("queue_capacity"),
              response.GetNumber("schema_version"));
  if (const obs::JsonValue* latency = response.Find("latency")) {
    std::printf("%-16s %10s %10s %10s %10s %10s %10s\n", "series", "count",
                "mean_us", "p50_us", "p90_us", "p95_us", "p99_us");
    for (const auto& [name, series] : latency->members) {
      if (series.GetNumber("count") == 0) continue;
      std::printf("%-16s %10.0f %10.1f %10.1f %10.1f %10.1f %10.1f\n",
                  name.c_str(), series.GetNumber("count"),
                  series.GetNumber("mean_us"), series.GetNumber("p50_us"),
                  series.GetNumber("p90_us"), series.GetNumber("p95_us"),
                  series.GetNumber("p99_us"));
    }
  }
  if (const obs::JsonValue* accuracy = response.Find("accuracy")) {
    std::printf("accuracy: %.0f sampled, window %.0f | mean %+.4g | "
                "mean|e| %.4g | p50|e| %.4g | p99|e| %.4g\n",
                accuracy->GetNumber("recorded"),
                accuracy->GetNumber("window"), accuracy->GetNumber("mean"),
                accuracy->GetNumber("mean_abs"),
                accuracy->GetNumber("p50_abs"),
                accuracy->GetNumber("p99_abs"));
  }
  if (const obs::JsonValue* recorder = response.Find("recorder")) {
    if (recorder->GetBool("enabled")) {
      std::printf("recorder: %.0f spans (%.0f dropped) in %.0f slots | "
                  "slow log %.0f/%.0f at >= %.0f us\n",
                  recorder->GetNumber("recorded"),
                  recorder->GetNumber("dropped"),
                  recorder->GetNumber("capacity"),
                  recorder->GetNumber("slow_recorded"),
                  recorder->GetNumber("slow_capacity"),
                  recorder->GetNumber("slow_threshold_us"));
    } else {
      std::printf("recorder: disabled\n");
    }
  }
}

/// One flight-recorder span per line: identity, outcome, timing, and
/// the sampled accuracy error when present.
void PrettyPrintSpans(const char* label, const obs::JsonValue& spans) {
  for (const obs::JsonValue& span : spans.elements) {
    std::printf("%s #%.0f %-13s %-6s v%.0f %9.1f us  %s", label,
                span.GetNumber("id"), span.GetString("outcome", "?").data(),
                span.GetString("algo", "?").data(),
                span.GetNumber("version"), span.GetNumber("total_us"),
                std::string(span.GetString("query")).c_str());
    if (const obs::JsonValue* err = span.Find("relative_error")) {
      std::printf("  (rel err %+.4g)", err->number_value);
    }
    std::printf("\n");
  }
}

void PrettyPrintRecent(const obs::JsonValue& response) {
  std::printf("recorder: %.0f recorded, %.0f dropped\n",
              response.GetNumber("recorded"), response.GetNumber("dropped"));
  if (const obs::JsonValue* spans = response.Find("spans")) {
    PrettyPrintSpans("span", *spans);
  }
  if (const obs::JsonValue* slow = response.Find("slow")) {
    if (!slow->elements.empty()) {
      PrettyPrintSpans("slow", *slow);
    }
  }
}

int RunRepl(const Options& options) {
  Connection conn;
  if (Status status = conn.Open(static_cast<uint16_t>(options.port));
      !status.ok()) {
    std::fprintf(stderr, "twig_client: %s\n", status.ToString().c_str());
    return 1;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    Result<std::string> response = conn.RoundTrip(line);
    if (!response.ok()) {
      std::fprintf(stderr, "twig_client: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", response.value().c_str());
    std::fflush(stdout);
  }
  return 0;
}

/// Opens `idle_conns` connections, holds them idle for `idle_hold_ms`,
/// then proves the server is still responsive by round-tripping a ping
/// on a fresh connection *and* on one of the idle herd. Exercises the
/// front end's fd budget and idle-connection handling (the smoke test
/// uses this with ~1k connections).
int RunIdle(const Options& options) {
  const uint16_t port = static_cast<uint16_t>(options.port);
  std::vector<std::unique_ptr<Connection>> herd;
  herd.reserve(options.idle_conns);
  size_t opened = 0;
  for (size_t i = 0; i < options.idle_conns; ++i) {
    auto conn = std::make_unique<Connection>();
    if (Status status = conn->Open(port); !status.ok()) {
      std::fprintf(stderr, "twig_client: idle connection %zu/%zu: %s\n",
                   i + 1, options.idle_conns, status.ToString().c_str());
      return 1;
    }
    herd.push_back(std::move(conn));
    ++opened;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(options.idle_hold_ms));

  Options ping = options;
  ping.op = "ping";
  // A fresh connection proves the accept path still has headroom while
  // the herd holds its fds; the herd member proves idle connections
  // stay serviceable rather than being reaped or wedged.
  Connection fresh;
  if (Status status = fresh.Open(port); !status.ok()) {
    std::fprintf(stderr, "twig_client: fresh connect with %zu idle: %s\n",
                 opened, status.ToString().c_str());
    return 1;
  }
  Result<std::string> response = fresh.RoundTrip(BuildRequest(ping, 1));
  if (!response.ok()) {
    std::fprintf(stderr, "twig_client: ping with %zu idle: %s\n", opened,
                 response.status().ToString().c_str());
    return 1;
  }
  if (!herd.empty()) {
    response = herd.front()->RoundTrip(BuildRequest(ping, 2));
    if (!response.ok()) {
      std::fprintf(stderr, "twig_client: idle-herd ping: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
  }
  Result<obs::JsonValue> parsed = obs::ParseJson(response.value());
  if (!parsed.ok() || !parsed.value().GetBool("ok")) {
    std::fprintf(stderr, "twig_client: ping rejected: %s\n",
                 response.value().c_str());
    return 1;
  }
  std::printf("idle soak ok: %zu connections held %zums, server responsive\n",
              opened, options.idle_hold_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  util::FlagParser flags("twig_client", kUsage);
  flags.Size("port", &options.port);
  flags.String("op", &options.op);
  flags.String("query", &options.query);
  flags.String("algo", &options.algo);
  flags.String("semantics", &options.semantics);
  flags.Double("deadline-ms", &options.deadline_ms);
  flags.Double("space", &options.space);
  flags.String("spec", &options.spec);
  flags.Bool("bench", &options.bench);
  flags.Size("count", &options.count);
  flags.Size("threads", &options.threads);
  flags.Size("swap-at", &options.swap_at);
  flags.Size("min-cached", &options.min_cached);
  flags.Size("retries", &options.retries);
  flags.Double("retry-base-ms", &options.retry_base_ms);
  flags.Double("retry-max-ms", &options.retry_max_ms);
  flags.String("dataset", &options.dataset);
  flags.String("tenant", &options.tenant);
  flags.Size("idle-conns", &options.idle_conns);
  flags.Size("idle-hold-ms", &options.idle_hold_ms);
  if (int code = flags.Parse(argc, argv); code >= 0) return code;
  if (options.port == 0 || options.port > 65535) {
    std::fprintf(stderr, "twig_client: --port must be a TCP port\n");
    return 2;
  }

  // --query alone means "estimate this", not the stdin REPL; ops that
  // need a query but got none fall back to a default one.
  if (options.op.empty() && !options.query.empty() && !options.bench) {
    options.op = "estimate";
  }
  if (options.query.empty() &&
      (options.bench || options.op == "estimate" || options.op == "explain")) {
    options.query = "article(author, year)";
  }
  if (options.idle_conns > 0) return RunIdle(options);
  if (options.bench) return RunBench(options);
  if (options.op.empty()) return RunRepl(options);

  Connection conn;
  const std::unique_ptr<serve::RetryPolicy> policy = MakeRetryPolicy(options);
  Result<std::string> response = RoundTripWithRetry(
      &conn, static_cast<uint16_t>(options.port), BuildRequest(options, 1),
      policy.get(), RetryDeadline(options), nullptr);
  if (!response.ok()) {
    std::fprintf(stderr, "twig_client: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", response.value().c_str());
  // Exit 0 only for an ok response, so scripts can gate on the result.
  Result<obs::JsonValue> parsed = obs::ParseJson(response.value());
  const bool ok = parsed.ok() && parsed.value().GetBool("ok");
  // The raw line above keeps scripts greppable; the observability
  // verbs additionally render human-readable.
  if (ok && options.op == "stats") PrettyPrintStats(parsed.value());
  if (ok && options.op == "recent") PrettyPrintRecent(parsed.value());
  return ok ? 0 : 1;
}
