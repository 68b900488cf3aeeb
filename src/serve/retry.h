// Client-side retry policy: capped exponential backoff with
// decorrelated jitter, a retry token budget, and deadline awareness.
//
// Shared between twig_client and bench_serve so "goodput under
// injected faults" is measured with exactly the retry behavior real
// clients run. RetryLoop is the one loop that drives a policy.
//
// Semantics:
//   * Retryable means transient: kUnavailable only (overload, brown-
//     out shedding, injected faults, shutdown races; the client maps
//     transport-level I/O errors to Unavailable before asking).
//     kInvalidArgument, kCorruption, kDeadlineExceeded etc. are
//     answers, not weather — retrying them burns the server for
//     nothing.
//   * Backoff is decorrelated jitter (Brooker): sleep_n is drawn
//     uniformly from [base, 3 * sleep_{n-1}], capped. Independent
//     clients desynchronize instead of retrying in lockstep.
//   * A server Retry-After hint floors the drawn backoff — the server
//     knows how long its brown-out lasts better than the client does.
//   * Deadline-aware: a retry whose backoff would land past the
//     request deadline is not granted; the caller reports the last
//     real error instead of burning the remaining budget.
//   * The token budget bounds retry amplification under sustained
//     failure: a retry costs one token, a success earns a fraction
//     (budget_ratio) back. When the bucket is empty, first attempts
//     still flow — only retries are suppressed — so a fleet of
//     retrying clients cannot multiply overload.
//
// Granted retries count obs::Counter::kRetries.

#ifndef TWIG_SERVE_RETRY_H_
#define TWIG_SERVE_RETRY_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>

#include "util/rng.h"
#include "util/status.h"

namespace twig::serve {

struct RetryOptions {
  /// Total attempts, the first included. 1 disables retries.
  int max_attempts = 4;
  /// First backoff and the jitter draw's lower bound.
  std::chrono::milliseconds base_backoff{2};
  /// Backoff ceiling.
  std::chrono::milliseconds max_backoff{250};
  /// Tokens earned back per successful request.
  double budget_ratio = 0.1;
  /// Token bucket capacity (also the initial balance).
  double budget_cap = 10.0;
  /// Jitter seed; policies with the same seed draw the same sequence.
  uint64_t seed = 0x5e771eULL;
};

/// Thread-safe: one policy is typically shared by all of a client's
/// connections so the budget is global to the process.
class RetryPolicy {
 public:
  explicit RetryPolicy(const RetryOptions& options = {});

  RetryPolicy(const RetryPolicy&) = delete;
  RetryPolicy& operator=(const RetryPolicy&) = delete;

  /// Is this failure transient, i.e. worth retrying at all?
  static bool IsRetryable(const Status& status) {
    return status.code() == StatusCode::kUnavailable;
  }

  /// Decides whether to retry after `status` failed attempt number
  /// `attempt` (1-based: 1 = the initial try). Returns the backoff to
  /// sleep before the next attempt, or nullopt to give up (non-
  /// retryable error, attempts exhausted, budget empty, or the backoff
  /// would land past `deadline`). `server_hint` is the server's
  /// Retry-After (zero = none); it floors the drawn backoff.
  std::optional<std::chrono::milliseconds> NextBackoff(
      const Status& status, int attempt,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max(),
      std::chrono::milliseconds server_hint = std::chrono::milliseconds{0});

  /// Feeds the budget: a success earns budget_ratio tokens (capped).
  void RecordSuccess();

  /// Current token balance (for tests and stats).
  double budget() const;

 private:
  const RetryOptions options_;
  mutable std::mutex mutex_;
  Rng rng_;
  double tokens_;
  std::chrono::milliseconds prev_backoff_;
};

/// One attempt's outcome for RetryLoop: OK on success, else the
/// failure (retried only if RetryPolicy::IsRetryable) and the server's
/// Retry-After hint (zero = none).
struct AttemptResult {
  Status status;
  std::chrono::milliseconds retry_after{0};
};

/// Runs `attempt` until it succeeds or `policy` grants no further
/// retry (nullptr = exactly one attempt), sleeping each granted
/// backoff in between and never past `deadline`; a success feeds the
/// policy's budget. Returns the number of retries taken. The caller
/// keeps whatever the last attempt produced.
int RetryLoop(RetryPolicy* policy,
              std::chrono::steady_clock::time_point deadline,
              const std::function<AttemptResult()>& attempt);

}  // namespace twig::serve

#endif  // TWIG_SERVE_RETRY_H_
