#include "core/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace xg::core {
namespace {

sensors::Reading MakeReading(int id, double wind, double dir, double temp,
                             double hum) {
  sensors::Reading r;
  r.station_id = id;
  r.wind_speed_ms = wind;
  r.wind_dir_deg = dir;
  r.temperature_c = temp;
  r.humidity_pct = hum;
  return r;
}

TEST(TelemetryFrame, SerializationRoundTrip) {
  TelemetryFrame f;
  f.time_s = 300.0;
  f.exterior_wind_ms = 3.2;
  f.exterior_dir_deg = 285.0;
  f.exterior_temp_c = 21.5;
  f.exterior_humidity_pct = 48.0;
  f.stations.push_back(MakeReading(0, 1.0, 290, 23.0, 55));
  f.stations.push_back(MakeReading(1, 3.3, 288, 21.4, 47));
  auto back = DeserializeFrame(SerializeFrame(f));
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back.value().time_s, 300.0);
  EXPECT_DOUBLE_EQ(back.value().exterior_wind_ms, 3.2);
  ASSERT_EQ(back.value().stations.size(), 2u);
  EXPECT_EQ(back.value().stations[1].station_id, 1);
  EXPECT_DOUBLE_EQ(back.value().stations[1].wind_speed_ms, 3.3);
}

TEST(TelemetryFrame, EmptyStations) {
  TelemetryFrame f;
  f.time_s = 1.0;
  auto back = DeserializeFrame(SerializeFrame(f));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().stations.empty());
}

TEST(TelemetryFrame, TruncatedBufferRejected) {
  TelemetryFrame f;
  f.stations.push_back(MakeReading(0, 1, 2, 3, 4));
  auto bytes = SerializeFrame(f);
  bytes.resize(bytes.size() - 10);
  EXPECT_FALSE(DeserializeFrame(bytes).ok());
  EXPECT_FALSE(DeserializeFrame(std::vector<uint8_t>{1, 2, 3}).ok());
  // A header claiming ~4G stations over an empty block fails before the
  // station vector is sized.
  bytes = SerializeFrame(TelemetryFrame{});
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 5 * sizeof(double), &huge, sizeof(huge));
  EXPECT_FALSE(DeserializeFrame(bytes).ok());
  EXPECT_FALSE(SummarizeFrame(bytes).has_value());
}

TEST(TelemetryFrame, FitsStandardLogElement) {
  TelemetryFrame f;
  for (int i = 0; i < 9; ++i) f.stations.push_back(MakeReading(i, 1, 2, 3, 4));
  EXPECT_LE(SerializeFrame(f).size(), 1024u);
  EXPECT_GE(f.WireBytes(), SerializeFrame(f).size());
}

TEST(MakeFrame, AggregatesExteriorStationsOnly) {
  std::vector<sensors::Reading> readings = {
      MakeReading(0, 1.0, 290, 24.0, 60),   // interior
      MakeReading(1, 4.0, 280, 20.0, 40),   // exterior
      MakeReading(2, 6.0, 300, 22.0, 50),   // exterior
  };
  const std::vector<bool> interior = {true, false, false};
  const TelemetryFrame f = MakeFrame(readings, interior, 600.0);
  EXPECT_DOUBLE_EQ(f.exterior_wind_ms, 5.0);
  EXPECT_DOUBLE_EQ(f.exterior_temp_c, 21.0);
  EXPECT_DOUBLE_EQ(f.exterior_humidity_pct, 45.0);
  EXPECT_NEAR(f.exterior_dir_deg, 290.0, 1.5);
  EXPECT_EQ(f.stations.size(), 3u);  // all stations ride along
}

TEST(MakeFrame, CircularMeanOfDirections) {
  // 350 and 10 degrees average to 0, not 180.
  std::vector<sensors::Reading> readings = {
      MakeReading(0, 1.0, 350.0, 20, 50), MakeReading(1, 1.0, 10.0, 20, 50)};
  const TelemetryFrame f = MakeFrame(readings, {false, false}, 0.0);
  EXPECT_TRUE(f.exterior_dir_deg < 1.0 || f.exterior_dir_deg > 359.0)
      << f.exterior_dir_deg;
}

TEST(MakeFrame, NoExteriorStations) {
  std::vector<sensors::Reading> readings = {MakeReading(0, 1, 2, 3, 4)};
  const TelemetryFrame f = MakeFrame(readings, {true}, 0.0);
  EXPECT_DOUBLE_EQ(f.exterior_wind_ms, 0.0);
}

TEST(CfdResult, SerializationRoundTrip) {
  CfdResult r;
  r.trigger_time_s = 100.0;
  r.complete_time_s = 550.0;
  r.boundary_wind_ms = 4.2;
  r.boundary_dir_deg = 275.0;
  r.boundary_temp_c = 23.0;
  r.interior_mean_speed_ms = 1.26;
  r.interior_mean_temp_c = 24.8;
  r.spray_advisory_ok = true;
  r.predictions.push_back({3, 1.1, 24.5});
  r.predictions.push_back({5, 1.4, 25.0});
  auto back = DeserializeResult(SerializeResult(r));
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back.value().complete_time_s, 550.0);
  EXPECT_TRUE(back.value().spray_advisory_ok);
  ASSERT_EQ(back.value().predictions.size(), 2u);
  EXPECT_EQ(back.value().predictions[1].station_id, 5);
  EXPECT_DOUBLE_EQ(back.value().predictions[1].wind_speed_ms, 1.4);
}

TEST(CfdResult, TruncatedRejected) {
  CfdResult r;
  r.predictions.push_back({1, 2.0, 3.0});
  auto bytes = SerializeResult(r);
  bytes.resize(bytes.size() - 4);
  EXPECT_FALSE(DeserializeResult(bytes).ok());
}

TEST(CfdResult, FitsStandardLogElement) {
  CfdResult r;
  for (int i = 0; i < 12; ++i) r.predictions.push_back({i, 1.0, 2.0});
  EXPECT_LE(SerializeResult(r).size(), 1024u);
}

}  // namespace
}  // namespace xg::core
