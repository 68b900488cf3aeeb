#include "serve/retry.h"

#include <algorithm>
#include <thread>

#include "obs/metrics.h"

namespace twig::serve {

RetryPolicy::RetryPolicy(const RetryOptions& options)
    : options_(options),
      rng_(options.seed),
      tokens_(options.budget_cap),
      prev_backoff_(options.base_backoff) {}

std::optional<std::chrono::milliseconds> RetryPolicy::NextBackoff(
    const Status& status, int attempt,
    std::chrono::steady_clock::time_point deadline,
    std::chrono::milliseconds server_hint) {
  if (!IsRetryable(status)) return std::nullopt;
  if (attempt >= options_.max_attempts) return std::nullopt;

  std::lock_guard<std::mutex> lock(mutex_);
  if (tokens_ < 1.0) return std::nullopt;

  // Decorrelated jitter: uniform in [base, 3 * previous], capped.
  const int64_t base = options_.base_backoff.count();
  const int64_t ceiling =
      std::min(options_.max_backoff.count(),
               std::max(base, 3 * prev_backoff_.count()));
  std::chrono::milliseconds backoff{rng_.UniformInt(base, ceiling)};
  backoff = std::max(backoff, server_hint);
  backoff = std::min(backoff, options_.max_backoff);

  // Never retry past the deadline: if the next attempt could not even
  // start in time, the caller is better served by the real error now.
  if (deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() + backoff >= deadline) {
    return std::nullopt;
  }

  tokens_ -= 1.0;
  prev_backoff_ = backoff;
  obs::CountEvent(obs::Counter::kRetries);
  return backoff;
}

void RetryPolicy::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mutex_);
  tokens_ = std::min(tokens_ + options_.budget_ratio, options_.budget_cap);
}

double RetryPolicy::budget() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tokens_;
}

int RetryLoop(RetryPolicy* policy,
              std::chrono::steady_clock::time_point deadline,
              const std::function<AttemptResult()>& attempt) {
  for (int n = 1;; ++n) {
    const AttemptResult result = attempt();
    if (result.status.ok()) {
      if (policy != nullptr) policy->RecordSuccess();
      return n - 1;
    }
    if (policy == nullptr) return n - 1;
    const std::optional<std::chrono::milliseconds> backoff =
        policy->NextBackoff(result.status, n, deadline, result.retry_after);
    if (!backoff.has_value()) return n - 1;
    std::this_thread::sleep_for(*backoff);
  }
}

}  // namespace twig::serve
