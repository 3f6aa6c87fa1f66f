// The CUPS digital twin (paper Section 2).
//
// The true atmospheric conditions inside the structure are "twinned" by
// CFD predictions for the interior. After a calibration period (the paper:
// "once the model is calibrated ... back tested against historical data"),
// a persistent deviation between predicted and measured interior airflow
// portends a possible screen breach — and the pattern of deviating
// stations localizes the region where the breach may have occurred.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/telemetry.hpp"

namespace xg::core {

struct TwinConfig {
  int calibration_updates = 4;   ///< healthy CFD cycles used for calibration
  double deviation_sigma = 3.0;  ///< flag when |resid| exceeds this x noise
  double noise_floor_ms = 0.5;   ///< expected anemometer noise (sigma, m/s)
  int consecutive_required = 2;  ///< persistence before raising a breach
  /// Staleness guard: when current exterior wind differs from the wind the
  /// prediction was computed for by more than this relative amount, the
  /// prediction is stale (the change detector will trigger a refresh) and
  /// deviation checks are suspended rather than raising false breaches.
  double stale_rel_tolerance = 0.30;
  double stale_abs_floor_ms = 0.5;
  /// Slow per-station recalibration rate applied to healthy readings after
  /// the initial calibration period, tracking model/sensor drift.
  double recalibration_alpha = 0.015;
  /// Relative band around the current calibration within which readings
  /// count as drift (and recalibrate); ratios outside the band are
  /// unexplained and left for the deviation detector.
  double recalibration_band = 0.35;
  /// Floor applied to predicted speeds before forming ratios: CFD interior
  /// predictions can approach zero in sheltered corners, where a ratio
  /// calibration would be ill-conditioned.
  double prediction_floor_ms = 0.25;
};

struct BreachSuspicion {
  double x_m = 0.0;              ///< suspected region centroid
  double y_m = 0.0;
  double max_sigma = 0.0;        ///< strongest station deviation
  std::vector<int32_t> stations; ///< deviating station ids
};

class DigitalTwin {
 public:
  explicit DigitalTwin(TwinConfig config = TwinConfig{}) : config_(config) {}

  const TwinConfig& config() const { return config_; }

  /// Register station coordinates so suspicions can be localized.
  void RegisterStation(int32_t id, double x_m, double y_m, bool interior);

  /// Install a fresh CFD prediction (called when a simulation completes).
  void UpdatePrediction(const CfdResult& result);

  /// Feed one telemetry frame; returns a suspicion once deviations have
  /// persisted for `consecutive_required` frames.
  std::optional<BreachSuspicion> Observe(const TelemetryFrame& frame);

  bool calibrated() const { return updates_seen_ >= config_.calibration_updates; }
  int updates_seen() const { return updates_seen_; }

  /// Calibration scale for one station (measured/predicted EMA); 1.0 until
  /// learned.
  double CalibrationFor(int32_t station_id) const;

  /// Per-station residual in sigma units from the last frame observed
  /// after calibration (diagnostics).
  std::map<int32_t, double> last_residual_sigma() const;

 private:
  struct StationInfo {
    double x = 0.0, y = 0.0;
    bool interior = false;
    double calibration = 1.0;
    bool calibration_init = false;
    int deviation_streak = 0;
    std::optional<double> predicted;  ///< wind from the latest result
    std::optional<double> residual_sigma;  ///< from the last frame
  };

  TwinConfig config_;
  std::map<int32_t, StationInfo> stations_;
  double prediction_boundary_wind_ = 0.0;
  int updates_seen_ = 0;  ///< results installed; none: no prediction yet
};

}  // namespace xg::core
