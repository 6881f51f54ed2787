#include "tc/sensors/gps.h"

#include <algorithm>
#include <cmath>

#include "tc/common/codec.h"
#include "tc/crypto/group.h"

namespace tc::sensors {
namespace {

// Synthetic city centre (Paris-like).
constexpr int32_t kCenterLat = 48857000;
constexpr int32_t kCenterLon = 2350000;

}  // namespace

Bytes PaydSummary::SignedPayload() const {
  return Encode(std::string("tc.payd.daily.v1"), tracker_id, day_index,
                total_km, total_cost_cents, static_cast<uint32_t>(trip_count));
}

GpsTracker::GpsTracker(std::string tracker_id, const Config& config,
                       size_t group_bits)
    : id_(std::move(tracker_id)),
      config_(config),
      group_bits_(group_bits),
      crypto_rng_(ToBytes("tc.gps." + id_)) {
  crypto::Schnorr schnorr(crypto::GroupParams::Standard(group_bits_));
  keys_ = schnorr.GenerateKeyPair(crypto_rng_);
}

double GpsTracker::DistanceKm(const GpsPoint& a, const GpsPoint& b) {
  double lat_mean = (a.lat_udeg + b.lat_udeg) * 0.5e-6 * M_PI / 180.0;
  double dlat_km = (b.lat_udeg - a.lat_udeg) * 1e-6 * 111.32;
  double dlon_km = (b.lon_udeg - a.lon_udeg) * 1e-6 * 111.32 *
                   std::cos(lat_mean);
  return std::sqrt(dlat_km * dlat_km + dlon_km * dlon_km);
}

int GpsTracker::TariffCentsPerKm(int32_t lat_udeg, int32_t lon_udeg) {
  GpsPoint here{0, lat_udeg, lon_udeg, 0};
  GpsPoint center{0, kCenterLat, kCenterLon, 0};
  double km = DistanceKm(here, center);
  if (km < 3.0) return 12;
  if (km < 10.0) return 6;
  return 2;
}

Trip GpsTracker::MakeTrip(Timestamp start, int32_t from_lat, int32_t from_lon,
                          int32_t to_lat, int32_t to_lon, Rng& rng) const {
  Trip trip;
  trip.start = start;
  GpsPoint prev{start, from_lat, from_lon, 0};
  trip.points.push_back(prev);

  // Straight-line "road" at varying urban speed, 1 Hz fixes.
  GpsPoint dest{0, to_lat, to_lon, 0};
  double total_km = DistanceKm(prev, dest);
  double travelled = 0;
  Timestamp t = start;
  while (travelled < total_km) {
    int speed = static_cast<int>(rng.NextInt(25, 70));  // km/h.
    double step_km = speed / 3600.0;
    travelled = std::min(total_km, travelled + step_km);
    double frac = total_km <= 0 ? 1.0 : travelled / total_km;
    ++t;
    GpsPoint p;
    p.time = t;
    p.lat_udeg = from_lat +
                 static_cast<int32_t>((to_lat - from_lat) * frac) +
                 static_cast<int32_t>(rng.NextInt(-30, 30));  // GPS jitter.
    p.lon_udeg = from_lon +
                 static_cast<int32_t>((to_lon - from_lon) * frac) +
                 static_cast<int32_t>(rng.NextInt(-30, 30));
    p.speed_kmh = speed;
    // Road pricing accrues per km at the local zone tariff.
    double seg_km = DistanceKm(trip.points.back(), p);
    trip.km += seg_km;
    trip.cost_cents += static_cast<int64_t>(
        std::llround(seg_km * TariffCentsPerKm(p.lat_udeg, p.lon_udeg) * 100) );
    trip.points.push_back(p);
  }
  trip.end = t;
  // cost accumulated in centi-cents for rounding stability; convert.
  trip.cost_cents /= 100;
  return trip;
}

std::vector<Trip> GpsTracker::SimulateDay(int64_t day_index,
                                          Timestamp day_start) const {
  Rng rng(config_.seed * 40503 + static_cast<uint64_t>(day_index));
  std::vector<Trip> trips;
  bool weekday = (day_index % 7) < 5;
  if (weekday) {
    // Morning commute ~08:15, evening return ~18:10.
    trips.push_back(MakeTrip(
        day_start + 8 * 3600 + rng.NextInt(0, 1800), config_.home_lat,
        config_.home_lon, config_.work_lat, config_.work_lon, rng));
    trips.push_back(MakeTrip(
        day_start + 18 * 3600 + rng.NextInt(0, 1800), config_.work_lat,
        config_.work_lon, config_.home_lat, config_.home_lon, rng));
  }
  // Errand trip some days (scheduled so it cannot overlap the evening
  // commute).
  if (rng.NextBernoulli(weekday ? 0.3 : 0.8)) {
    int32_t err_lat = config_.home_lat +
                      static_cast<int32_t>(rng.NextInt(-40000, 40000));
    int32_t err_lon = config_.home_lon +
                      static_cast<int32_t>(rng.NextInt(-40000, 40000));
    Timestamp start = day_start + 10 * 3600 + rng.NextInt(0, 3 * 3600);
    Trip out = MakeTrip(start, config_.home_lat, config_.home_lon, err_lat,
                        err_lon, rng);
    Timestamp back_start = out.end + rng.NextInt(900, 3600);
    Trip back = MakeTrip(back_start, err_lat, err_lon, config_.home_lat,
                         config_.home_lon, rng);
    trips.push_back(std::move(out));
    trips.push_back(std::move(back));
  }
  std::sort(trips.begin(), trips.end(),
            [](const Trip& a, const Trip& b) { return a.start < b.start; });
  return trips;
}

PaydSummary GpsTracker::Summarize(int64_t day_index,
                                  const std::vector<Trip>& trips) {
  PaydSummary summary;
  summary.tracker_id = id_;
  summary.day_index = day_index;
  summary.trip_count = static_cast<int>(trips.size());
  for (const Trip& trip : trips) {
    summary.total_km += trip.km;
    summary.total_cost_cents += trip.cost_cents;
  }
  crypto::Schnorr schnorr(crypto::GroupParams::Standard(group_bits_));
  summary.signature =
      schnorr.Sign(keys_.private_key, summary.SignedPayload(), crypto_rng_);
  return summary;
}

bool GpsTracker::Verify(const PaydSummary& summary,
                        const crypto::BigInt& tracker_public_key,
                        size_t group_bits) {
  crypto::Schnorr schnorr(crypto::GroupParams::Standard(group_bits));
  return schnorr.Verify(tracker_public_key, summary.SignedPayload(),
                        summary.signature);
}

}  // namespace tc::sensors
