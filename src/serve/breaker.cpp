#include "serve/breaker.hpp"

namespace cudanp::serve {

bool CircuitBreaker::allow(std::int64_t now_ms) {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now_ms >= open_until_ms_) {
        state_ = BreakerState::kHalfOpen;
        ++probes_;
        return true;
      }
      ++short_circuits_;
      return false;
    case BreakerState::kHalfOpen:
      // Commits are serialized in admission order, so the probe that
      // half-opened the breaker resolves (on_success / on_failure)
      // before any other job consults it; a second concurrent probe
      // cannot happen by construction.
      return true;
  }
  return true;
}

void CircuitBreaker::on_success() {
  state_ = BreakerState::kClosed;
  consecutive_failures_ = 0;
}

void CircuitBreaker::on_failure(std::int64_t now_ms) {
  ++consecutive_failures_;
  if (state_ == BreakerState::kHalfOpen ||
      consecutive_failures_ >= policy_.failure_threshold) {
    state_ = BreakerState::kOpen;
    open_until_ms_ = now_ms + policy_.cooldown_ms;
    ++opens_;
  }
}

}  // namespace cudanp::serve
