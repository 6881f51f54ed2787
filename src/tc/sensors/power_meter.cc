#include "tc/sensors/power_meter.h"

#include "tc/common/codec.h"
#include "tc/crypto/group.h"

namespace tc::sensors {

Bytes CertifiedAggregate::SignedPayload() const {
  return Encode(std::string("tc.meter.daily.v1"), meter_id, day_index, kwh);
}

PowerMeter::PowerMeter(std::string meter_id, size_t group_bits)
    : id_(std::move(meter_id)),
      group_bits_(group_bits),
      rng_(ToBytes("tc.meter." + id_)) {
  crypto::Schnorr schnorr(crypto::GroupParams::Standard(group_bits_));
  keys_ = schnorr.GenerateKeyPair(rng_);
}

CertifiedAggregate PowerMeter::Certify(int64_t day_index, double kwh) {
  CertifiedAggregate agg;
  agg.meter_id = id_;
  agg.day_index = day_index;
  agg.kwh = kwh;
  crypto::Schnorr schnorr(crypto::GroupParams::Standard(group_bits_));
  agg.signature = schnorr.Sign(keys_.private_key, agg.SignedPayload(), rng_);
  return agg;
}

CertifiedAggregate PowerMeter::EmitDay(
    const DayTrace& trace, Timestamp day_start,
    const std::function<void(Timestamp, int)>& sink) {
  for (size_t i = 0; i < trace.watts.size(); ++i) {
    sink(day_start + static_cast<Timestamp>(i), trace.watts[i]);
  }
  return Certify(trace.day_index, trace.kwh);
}

bool PowerMeter::Verify(const CertifiedAggregate& aggregate,
                        const crypto::BigInt& meter_public_key,
                        size_t group_bits) {
  crypto::Schnorr schnorr(crypto::GroupParams::Standard(group_bits));
  return schnorr.Verify(meter_public_key, aggregate.SignedPayload(),
                        aggregate.signature);
}

}  // namespace tc::sensors
