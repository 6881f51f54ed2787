#include "tc/cloud/fault_injector.h"

#include "tc/common/rng.h"

namespace tc::cloud {

const char* NetOpName(NetOp op) {
  switch (op) {
    case NetOp::kGet:
      return "get";
    case NetOp::kTxnCommit:
      return "txn_commit";
    case NetOp::kTelemetry:
      return "telemetry";
  }
  return "?";
}

NetworkFaultConfig NetworkFaultConfig::Lossy(double rate, uint64_t seed) {
  NetworkFaultConfig config;
  config.drop_request_prob = rate * 0.4;
  config.drop_ack_prob = rate * 0.2;
  config.duplicate_prob = rate * 0.2;
  config.delay_prob = rate;
  config.delay_mean_us = 2000.0;
  config.seed = seed;
  return config;
}

std::string FaultDecision::ToString() const {
  std::string out = std::to_string(ordinal);
  out += ' ';
  out += NetOpName(op);
  if (outage) out += " outage";
  if (throttled) out += " throttled";
  if (drop_request) out += " drop_request";
  if (drop_ack) out += " drop_ack";
  if (duplicate) out += " duplicate";
  if (delay_us != 0) out += " delay=" + std::to_string(delay_us);
  if (cpu_burn_us != 0) out += " burn=" + std::to_string(cpu_burn_us);
  return out;
}

NetworkFaultInjector::NetworkFaultInjector(const NetworkFaultConfig& config)
    : config_(config) {}

std::unique_ptr<NetworkFaultInjector> NetworkFaultInjector::FromSchedule(
    const std::vector<FaultDecision>& schedule, uint64_t seed) {
  NetworkFaultConfig config;
  config.seed = seed;
  auto injector = std::make_unique<NetworkFaultInjector>(config);
  injector->replay_ = true;
  for (const FaultDecision& decision : schedule) {
    injector->replay_schedule_[decision.ordinal] = decision;
  }
  return injector;
}

FaultDecision NetworkFaultInjector::Draw(uint64_t ordinal, NetOp op) const {
  FaultDecision decision;
  decision.ordinal = ordinal;
  decision.op = op;

  for (const auto& [begin, end] : config_.outage_ops) {
    if (ordinal >= begin && ordinal < end) {
      decision.outage = true;
      return decision;
    }
  }

  // Private RNG per (seed, ordinal, op): the decision is a pure function
  // of those three, independent of every other ordinal's draws and of the
  // thread interleaving that assigned the ordinal.
  Rng rng(MixSeed(config_.seed, ordinal * 8 + static_cast<uint8_t>(op)));
  if (rng.NextBernoulli(config_.throttle_prob)) {
    decision.throttled = true;
    return decision;
  }
  if (rng.NextBernoulli(config_.drop_request_prob)) {
    decision.drop_request = true;
  } else if (rng.NextBernoulli(config_.drop_ack_prob)) {
    decision.drop_ack = true;
  } else if (rng.NextBernoulli(config_.duplicate_prob)) {
    decision.duplicate = true;
  }
  if (rng.NextBernoulli(config_.delay_prob)) {
    decision.delay_us =
        static_cast<uint32_t>(rng.NextExponential(1.0 / config_.delay_mean_us));
  }
  // A request the network never delivered cannot burn provider CPU; every
  // other outcome (including a lost ack — the provider DID execute) can.
  if (!decision.drop_request &&
      rng.NextBernoulli(config_.slow_op_prob)) {
    decision.cpu_burn_us = config_.slow_op_cpu_us;
  }
  return decision;
}

FaultDecision NetworkFaultInjector::Next(NetOp op) {
  uint64_t ordinal = next_ordinal_.fetch_add(1, std::memory_order_relaxed);
  FaultDecision decision;
  if (replay_) {
    auto it = replay_schedule_.find(ordinal);
    if (it != replay_schedule_.end()) {
      decision = it->second;
      decision.op = op;  // The caller's op class wins on replay.
    } else {
      decision.ordinal = ordinal;
      decision.op = op;
    }
  } else {
    decision = Draw(ordinal, op);
  }
  // The manual partition overrides everything except an already-decided
  // outage (same outcome).
  if (forced_outage_.load(std::memory_order_relaxed)) {
    FaultDecision blackout;
    blackout.ordinal = ordinal;
    blackout.op = op;
    blackout.outage = true;
    decision = blackout;
  }
  Count(decision);
  if (!decision.clean() && !forced_outage_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(schedule_mu_);
    schedule_[decision.ordinal] = decision;
  }
  return decision;
}

void NetworkFaultInjector::Count(const FaultDecision& decision) {
  stats_.attempts.fetch_add(1, std::memory_order_relaxed);
  if (decision.outage) {
    stats_.outage_rejections.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (decision.throttled) {
    stats_.throttled.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (decision.drop_request) {
    stats_.drops_request.fetch_add(1, std::memory_order_relaxed);
  }
  if (decision.drop_ack) {
    stats_.drops_ack.fetch_add(1, std::memory_order_relaxed);
  }
  if (decision.duplicate) {
    stats_.duplicates.fetch_add(1, std::memory_order_relaxed);
  }
  if (decision.delay_us != 0) {
    stats_.delays.fetch_add(1, std::memory_order_relaxed);
  }
  if (decision.cpu_burn_us != 0) {
    stats_.slow_ops.fetch_add(1, std::memory_order_relaxed);
  }
}

NetworkFaultStats NetworkFaultInjector::stats() const {
  NetworkFaultStats out;
  out.attempts = stats_.attempts.load(std::memory_order_relaxed);
  out.drops_request = stats_.drops_request.load(std::memory_order_relaxed);
  out.drops_ack = stats_.drops_ack.load(std::memory_order_relaxed);
  out.duplicates = stats_.duplicates.load(std::memory_order_relaxed);
  out.throttled = stats_.throttled.load(std::memory_order_relaxed);
  out.outage_rejections =
      stats_.outage_rejections.load(std::memory_order_relaxed);
  out.delays = stats_.delays.load(std::memory_order_relaxed);
  out.slow_ops = stats_.slow_ops.load(std::memory_order_relaxed);
  return out;
}

std::vector<FaultDecision> NetworkFaultInjector::Schedule() const {
  std::lock_guard<std::mutex> lock(schedule_mu_);
  std::vector<FaultDecision> out;
  out.reserve(schedule_.size());
  for (const auto& [ordinal, decision] : schedule_) out.push_back(decision);
  return out;
}

std::string NetworkFaultInjector::FormatSchedule() const {
  std::string out = "# network fault schedule, seed=" +
                    std::to_string(config_.seed) + "\n";
  for (const FaultDecision& decision : Schedule()) {
    out += decision.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace tc::cloud
