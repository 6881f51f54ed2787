#ifndef TC_NET_CIRCUIT_BREAKER_H_
#define TC_NET_CIRCUIT_BREAKER_H_

#include <cstdint>

namespace tc::net {

struct CircuitBreakerPolicy {
  /// Consecutive operation failures (each already retried/backed off to
  /// its own deadline) that flip the circuit open.
  uint32_t failure_threshold = 3;
  /// Virtual time the circuit stays open before admitting one half-open
  /// probe. While open, requests are rejected in O(1) — that rejection is
  /// what puts a cell into degraded local-only mode instead of burning its
  /// deadline budget against a dead provider on every operation.
  uint64_t open_cooldown_us = 1000000;
};

/// Classic three-state circuit breaker on a caller-supplied virtual clock.
/// Not thread-safe by design: each cell (or fleet task) owns one breaker
/// inside its own channel; nothing is shared.
class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  explicit CircuitBreaker(const CircuitBreakerPolicy& policy)
      : policy_(policy) {}

  /// May an attempt go out at virtual time `now_us`? An open circuit past
  /// its cooldown admits exactly one probe (and moves to half-open).
  bool AllowRequest(uint64_t now_us) {
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kOpen:
        if (now_us - opened_at_us_ >= policy_.open_cooldown_us) {
          state_ = State::kHalfOpen;
          return true;
        }
        ++rejections_;
        return false;
      case State::kHalfOpen:
        // One probe in flight at a time; the caller is synchronous, so a
        // second AllowRequest in half-open means the probe failed silently
        // — treat as another probe.
        return true;
    }
    return true;
  }

  /// One successful half-open probe closes the circuit.
  void RecordSuccess(uint64_t /*now_us*/) {
    if (state_ == State::kHalfOpen) state_ = State::kClosed;
    consecutive_failures_ = 0;
  }

  void RecordFailure(uint64_t now_us) {
    if (state_ == State::kHalfOpen) {
      Open(now_us);
      return;
    }
    if (++consecutive_failures_ >= policy_.failure_threshold &&
        state_ == State::kClosed) {
      Open(now_us);
    }
  }

  State state() const { return state_; }
  bool open() const { return state_ != State::kClosed; }
  uint64_t opens() const { return opens_; }
  uint64_t rejections() const { return rejections_; }
  uint64_t opened_at_us() const { return opened_at_us_; }

 private:
  void Open(uint64_t now_us) {
    state_ = State::kOpen;
    opened_at_us_ = now_us;
    consecutive_failures_ = 0;
    ++opens_;
  }

  CircuitBreakerPolicy policy_;
  State state_ = State::kClosed;
  uint32_t consecutive_failures_ = 0;
  uint64_t opened_at_us_ = 0;
  uint64_t opens_ = 0;
  uint64_t rejections_ = 0;
};

}  // namespace tc::net

#endif  // TC_NET_CIRCUIT_BREAKER_H_
