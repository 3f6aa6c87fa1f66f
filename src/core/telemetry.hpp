// Telemetry and result records shipped through CSPOT logs.
//
// A TelemetryFrame is one 5-minute report: the aggregate exterior
// conditions (the CFD boundary conditions) plus each station's reading.
// A CfdResult is what a completed simulation writes back: the boundary it
// ran with, the interior state it predicts — including per-station
// predictions the digital twin compares against measurements — and the
// grower-facing decision-support flags.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "sensors/station.hpp"

namespace xg::core {

struct TelemetryFrame {
  double time_s = 0.0;
  // Aggregates over exterior stations (CFD boundary conditions).
  double exterior_wind_ms = 0.0;
  double exterior_dir_deg = 0.0;
  double exterior_temp_c = 0.0;
  double exterior_humidity_pct = 0.0;
  std::vector<sensors::Reading> stations;

  size_t WireBytes() const { return WireBytesFor(stations.size()); }
  static size_t WireBytesFor(size_t stations) {
    return 48 + stations * sizeof(sensors::Reading);
  }
};

std::vector<uint8_t> SerializeFrame(const TelemetryFrame& f);
Result<TelemetryFrame> DeserializeFrame(std::span<const uint8_t> bytes);

/// The change detector's view of a serialized frame, read in place without
/// copying the station block.
struct FrameSummary {
  double exterior_wind_ms = 0.0;
  double exterior_temp_c = 0.0;
  uint32_t stations = 0;
};
/// nullopt exactly when DeserializeFrame would fail on `bytes`.
std::optional<FrameSummary> SummarizeFrame(std::span<const uint8_t> bytes);

/// Aggregate raw station readings into a frame (exterior means; interior
/// stations ride along for the twin).
TelemetryFrame MakeFrame(std::vector<sensors::Reading> stations,
                         const std::vector<bool>& is_interior, double time_s);

struct StationPrediction {
  int32_t station_id = 0;
  double wind_speed_ms = 0.0;
  double temperature_c = 0.0;
};

struct CfdResult {
  double trigger_time_s = 0.0;   ///< when the alert fired
  double complete_time_s = 0.0;  ///< when the result was produced
  double boundary_wind_ms = 0.0;
  double boundary_dir_deg = 0.0;
  double boundary_temp_c = 0.0;
  double interior_mean_speed_ms = 0.0;
  double interior_mean_temp_c = 0.0;
  bool spray_advisory_ok = false;  ///< calm enough to apply inputs
  std::vector<StationPrediction> predictions;
};

std::vector<uint8_t> SerializeResult(const CfdResult& r);
Result<CfdResult> DeserializeResult(const std::vector<uint8_t>& bytes);

}  // namespace xg::core
