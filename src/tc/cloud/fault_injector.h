#ifndef TC_CLOUD_FAULT_INJECTOR_H_
#define TC_CLOUD_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tc::cloud {

/// Provider RPC classes the injector distinguishes (the decision stream is
/// salted with the op class, so a commit and a get racing for the same
/// ordinal never swap faults between runs). The values are part of that
/// salt, so they never change; 0, 1, 3 and 4 are retired.
enum class NetOp : uint8_t {
  kGet = 2,
  kTxnCommit = 5,
  kTelemetry = 6,
};

const char* NetOpName(NetOp op);

/// Knobs of the simulated network/provider between cells and the cloud.
/// All probabilities are per RPC *attempt*. Where the flash layer's
/// FaultPlan models dying NAND, this models the weakly-connected WAN leg
/// the paper assumes: messages are lost, duplicated, delayed and the
/// provider itself goes away for whole windows.
struct NetworkFaultConfig {
  /// The request never reaches the provider: no effect, caller times out
  /// (surfaced as kUnavailable).
  double drop_request_prob = 0.0;
  /// The provider applied the operation but the reply was lost: the effect
  /// IS there, the caller sees kUnavailable and will retry — the case
  /// commit tokens exist for.
  double drop_ack_prob = 0.0;
  /// Network-level retransmission: the provider receives (and applies) the
  /// same request twice.
  double duplicate_prob = 0.0;
  /// Extra one-way delay charged to the attempt (exponential with mean
  /// `delay_mean_us`, charged to the caller's virtual clock — never a
  /// wall-clock sleep).
  double delay_prob = 0.0;
  double delay_mean_us = 1000.0;
  /// Provider-side load shedding: the RPC is rejected outright
  /// (kUnavailable, no effect).
  double throttle_prob = 0.0;
  /// Slow-op fault: the provider *burns real CPU* for `slow_op_cpu_us`
  /// wall microseconds while executing the request. Unlike delay_us
  /// (virtual, charged to the caller's simulated clock), burned CPU
  /// contends with every other request on the host — the saturation
  /// ingredient the overload chaos lane is built on.
  double slow_op_prob = 0.0;
  uint32_t slow_op_cpu_us = 0;
  /// Provider outage windows over the injector's op-ordinal axis: an
  /// attempt whose ordinal falls in [begin, end) fails with kUnavailable
  /// and has no effect. Ordinals are 1-based and global across ops.
  std::vector<std::pair<uint64_t, uint64_t>> outage_ops;
  uint64_t seed = 1;

  /// Lossy network, the chaos-sweep shorthand: request drops at 0.4 x
  /// rate, lost acks and duplicates at 0.2 x rate each, and delays at
  /// `rate` (mean 2 ms).
  static NetworkFaultConfig Lossy(double rate, uint64_t seed);
};

/// What the network did to one RPC attempt. Default-constructed = clean
/// delivery.
struct FaultDecision {
  uint64_t ordinal = 0;
  NetOp op = NetOp::kGet;
  bool drop_request = false;
  bool drop_ack = false;
  bool duplicate = false;
  bool throttled = false;
  bool outage = false;
  uint32_t delay_us = 0;
  /// Wall CPU the provider burns while executing this request (slow-op
  /// fault; 0 = none).
  uint32_t cpu_burn_us = 0;

  bool clean() const {
    return !drop_request && !drop_ack && !duplicate && !throttled && !outage &&
           delay_us == 0 && cpu_burn_us == 0;
  }
  /// One-line schedule entry, e.g. "17 txn_commit drop_ack delay=420".
  std::string ToString() const;
};

/// Ground-truth totals of injected faults (what the chaos harness compares
/// against what the cells *survived*).
struct NetworkFaultStats {
  uint64_t attempts = 0;
  uint64_t drops_request = 0;
  uint64_t drops_ack = 0;
  uint64_t duplicates = 0;
  uint64_t throttled = 0;
  uint64_t outage_rejections = 0;
  uint64_t delays = 0;
  uint64_t slow_ops = 0;
  uint64_t faults() const {
    return drops_request + drops_ack + duplicates + throttled +
           outage_rejections;
  }
};

/// Deterministic, seed-driven network fault injector.
///
/// Every attempt draws one FaultDecision that is a *pure function of
/// (seed, ordinal, op)* — a private splitmix-keyed RNG per draw, no shared
/// stream. Concurrent callers therefore only race for which ordinal they
/// get; the decision attached to each ordinal is fixed by the seed, so the
/// fault schedule of a run is reproducible from the seed alone, and a
/// printed schedule replays exactly via FromSchedule() (the CI
/// reproducibility gate asserts both).
///
/// Thread safety: Next()/ForceOutage()/stats() may be called from any
/// thread. The recorded schedule keeps every non-clean decision.
class NetworkFaultInjector {
 public:
  explicit NetworkFaultInjector(const NetworkFaultConfig& config);

  /// Decision for the next RPC attempt (assigns the next global ordinal).
  FaultDecision Next(NetOp op);

  /// Manual partition switch: while on, every attempt is an outage
  /// rejection (stacked on top of any configured outage windows). This is
  /// the bench's "pull the WAN cable for 10 s" lever.
  void ForceOutage(bool on) {
    forced_outage_.store(on, std::memory_order_relaxed);
  }
  bool forced_outage() const {
    return forced_outage_.load(std::memory_order_relaxed);
  }

  NetworkFaultStats stats() const;
  const NetworkFaultConfig& config() const { return config_; }
  uint64_t ordinals_issued() const {
    return next_ordinal_.load(std::memory_order_relaxed) - 1;
  }

  /// Every non-clean decision so far, in ordinal order.
  std::vector<FaultDecision> Schedule() const;
  /// Human-readable schedule, one fault per line (what a failing chaos
  /// seed prints and what FromSchedule-based replay is checked against).
  std::string FormatSchedule() const;

  /// Injector that replays exactly `schedule`: the recorded ordinals get
  /// their recorded decision, every other ordinal is clean delivery. The
  /// probability knobs are ignored. `seed` is the originating injector's
  /// seed, echoed in FormatSchedule() so a replayed run prints the same
  /// header it was reproduced from.
  static std::unique_ptr<NetworkFaultInjector> FromSchedule(
      const std::vector<FaultDecision>& schedule, uint64_t seed = 0);

 private:
  FaultDecision Draw(uint64_t ordinal, NetOp op) const;
  void Count(const FaultDecision& decision);

  NetworkFaultConfig config_;
  bool replay_ = false;
  std::map<uint64_t, FaultDecision> replay_schedule_;  // immutable after ctor.

  std::atomic<uint64_t> next_ordinal_{1};
  std::atomic<bool> forced_outage_{false};

  struct AtomicStats {
    std::atomic<uint64_t> attempts{0};
    std::atomic<uint64_t> drops_request{0};
    std::atomic<uint64_t> drops_ack{0};
    std::atomic<uint64_t> duplicates{0};
    std::atomic<uint64_t> throttled{0};
    std::atomic<uint64_t> outage_rejections{0};
    std::atomic<uint64_t> delays{0};
    std::atomic<uint64_t> slow_ops{0};
  };
  AtomicStats stats_;

  mutable std::mutex schedule_mu_;
  std::map<uint64_t, FaultDecision> schedule_;  // guarded by schedule_mu_.
};

}  // namespace tc::cloud

#endif  // TC_CLOUD_FAULT_INJECTOR_H_
