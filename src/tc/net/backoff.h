#ifndef TC_NET_BACKOFF_H_
#define TC_NET_BACKOFF_H_

#include <cstdint>

#include "tc/common/rng.h"

namespace tc::net {

/// Retry-delay policy. All delays are *virtual* microseconds: the channel
/// charges them to its simulated clock and its deadline budget — nothing
/// in tc::net ever sleeps on the wall clock, which is what lets the whole
/// retry engine run (and be unit-tested) deterministically.
///
/// Delays use decorrelated jitter (the AWS architecture-blog variant):
///   delay_n = min(max_us, uniform(initial_us, 3 * delay_{n-1}))
/// which spreads a thundering herd of reconnecting cells across the whole
/// window instead of synchronizing them on powers of two.
struct BackoffPolicy {
  uint64_t initial_us = 500;
  uint64_t max_us = 200000;
};

/// One retry sequence. Deterministic for a given (policy, seed); Reset()
/// rewinds to the first delay but keeps consuming the same RNG stream (two
/// operations on one channel share the stream, they do not replay it).
class Backoff {
 public:
  Backoff(const BackoffPolicy& policy, uint64_t seed);

  /// Delay to charge before the next attempt.
  uint64_t NextDelayUs();

  /// Starts a new retry sequence (new operation).
  void Reset();

 private:
  BackoffPolicy policy_;
  Rng rng_;
  uint64_t prev_us_;
};

/// Virtual-time budget of one operation: every attempt and every backoff
/// delay is charged here; when the budget runs dry the operation fails
/// with kDeadlineExceeded instead of retrying forever.
class DeadlineBudget {
 public:
  explicit DeadlineBudget(uint64_t budget_us) : remaining_us_(budget_us) {}

  /// Charges `us`; returns false once the budget is exhausted.
  bool Charge(uint64_t us) {
    spent_us_ += us;
    if (us >= remaining_us_) {
      remaining_us_ = 0;
      return false;
    }
    remaining_us_ -= us;
    return true;
  }

  bool exhausted() const { return remaining_us_ == 0; }
  uint64_t remaining_us() const { return remaining_us_; }
  uint64_t spent_us() const { return spent_us_; }

 private:
  uint64_t remaining_us_;
  uint64_t spent_us_ = 0;
};

/// Client-side retry budget (the gRPC/SRE token bucket): every retry costs
/// one token, every operation that reaches the provider (a success or a
/// definitive answer) refills a fraction of one. In
/// steady state retries are free; during a full provider outage the bucket
/// drains and stays dry (no successes to refill it), capping the fleet's
/// retry amplification at (initial + ops·refill)/ops ≈ 1× instead of the
/// deadline-bounded storm an unbudgeted retry loop produces — a brownout
/// cannot be amplified into a metastable outage by the clients themselves.
///
/// An infinite `capacity` never runs dry: every retry is allowed.
struct RetryBudgetPolicy {
  double capacity = 10.0;            ///< Bucket size (and initial fill).
  double refill_per_success = 0.1;   ///< Tokens returned by one op success.
};

class RetryBudget {
 public:
  explicit RetryBudget(const RetryBudgetPolicy& policy)
      : policy_(policy), tokens_(policy.capacity) {}

  /// Spends one token; false = budget dry, the caller must give up instead
  /// of retrying.
  bool TryRetry() {
    if (tokens_ < 1.0) {
      ++denied_;
      return false;
    }
    tokens_ -= 1.0;
    return true;
  }

  /// Refills on operation success (capped at capacity).
  void RecordSuccess() {
    tokens_ = tokens_ + policy_.refill_per_success;
    if (tokens_ > policy_.capacity) tokens_ = policy_.capacity;
  }

  double tokens() const { return tokens_; }
  uint64_t denied() const { return denied_; }

 private:
  RetryBudgetPolicy policy_;
  double tokens_;
  uint64_t denied_ = 0;
};

}  // namespace tc::net

#endif  // TC_NET_BACKOFF_H_
