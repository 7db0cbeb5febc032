// Per-(kernel, variant) circuit breaker.
//
// Tracks the health of one first-choice NP configuration across jobs.
// K consecutive failures open the breaker; while open, committed jobs
// with the same key are routed straight to the guaranteed baseline
// fallback (graceful degradation) instead of burning a doomed variant
// attempt. After cooldown_ms of virtual time the breaker half-opens and
// lets exactly one probe job through: a pristine result closes it, a
// failure re-opens it for another cooldown.
//
// Every transition happens at commit time, in admission order, under
// the service's virtual clock — never from worker threads — so breaker
// evolution (and therefore every routed job) is bit-identical at every
// --jobs count. See docs/robustness.md.
#pragma once

#include <cstdint>

#include "support/record.hpp"

namespace cudanp::serve {

struct BreakerPolicy {
  /// Consecutive first-choice failures that open the breaker.
  int failure_threshold = 3;
  /// Virtual ms the breaker stays open before half-open probing.
  std::int64_t cooldown_ms = 200;
};

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

inline constexpr record::Slug<BreakerState> kBreakerStateSlugs[] = {
    {BreakerState::kClosed, "closed"},
    {BreakerState::kOpen, "open"},
    {BreakerState::kHalfOpen, "half-open"},
};

[[nodiscard]] inline const char* to_string(BreakerState s) {
  return record::slug(kBreakerStateSlugs, s);
}

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerPolicy policy) : policy_(policy) {}

  /// True when traffic may flow to the variant: closed, or open with an
  /// expired cooldown (which moves the breaker to half-open and counts
  /// a probe). False short-circuits the job to the baseline (counted).
  [[nodiscard]] bool allow(std::int64_t now_ms);

  /// A pristine commit: closes the breaker and resets the failure run.
  void on_success();

  /// A first-choice failure commit: extends the failure run; opens the
  /// breaker at the threshold, and re-opens immediately from half-open
  /// (a failed probe proves the variant is still sick).
  void on_failure(std::int64_t now_ms);

  [[nodiscard]] BreakerState state() const { return state_; }
  [[nodiscard]] int consecutive_failures() const {
    return consecutive_failures_;
  }
  [[nodiscard]] int opens() const { return opens_; }
  [[nodiscard]] int probes() const { return probes_; }
  [[nodiscard]] int short_circuits() const { return short_circuits_; }
  [[nodiscard]] std::int64_t open_until_ms() const { return open_until_ms_; }

 private:
  BreakerPolicy policy_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  std::int64_t open_until_ms_ = 0;
  int opens_ = 0;
  int probes_ = 0;
  int short_circuits_ = 0;
};

}  // namespace cudanp::serve
