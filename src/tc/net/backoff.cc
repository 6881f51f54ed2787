#include "tc/net/backoff.h"

#include <algorithm>

namespace tc::net {

Backoff::Backoff(const BackoffPolicy& policy, uint64_t seed)
    : policy_(policy), rng_(seed), prev_us_(policy.initial_us) {}

void Backoff::Reset() { prev_us_ = policy_.initial_us; }

uint64_t Backoff::NextDelayUs() {
  const uint64_t lo = policy_.initial_us;
  const uint64_t hi = std::max<uint64_t>(lo + 1, prev_us_ * 3);
  const uint64_t delay = std::min(policy_.max_us, lo + rng_.NextBelow(hi - lo));
  prev_us_ = std::max<uint64_t>(delay, policy_.initial_us);
  return delay;
}

}  // namespace tc::net
