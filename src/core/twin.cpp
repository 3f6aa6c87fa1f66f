#include "core/twin.hpp"

#include <algorithm>
#include <cmath>

namespace xg::core {

void DigitalTwin::RegisterStation(int32_t id, double x_m, double y_m,
                                  bool interior) {
  StationInfo info;
  info.x = x_m;
  info.y = y_m;
  info.interior = interior;
  stations_[id] = info;
}

void DigitalTwin::UpdatePrediction(const CfdResult& result) {
  for (auto& [id, st] : stations_) st.predicted.reset();
  for (const StationPrediction& p : result.predictions) {
    if (auto it = stations_.find(p.station_id); it != stations_.end()) {
      it->second.predicted = p.wind_speed_ms;
    }
  }
  prediction_boundary_wind_ = result.boundary_wind_ms;
  ++updates_seen_;
}

std::map<int32_t, double> DigitalTwin::last_residual_sigma() const {
  std::map<int32_t, double> residuals;
  for (const auto& [id, st] : stations_) {
    if (st.residual_sigma.has_value()) residuals[id] = *st.residual_sigma;
  }
  return residuals;
}

double DigitalTwin::CalibrationFor(int32_t station_id) const {
  auto it = stations_.find(station_id);
  return it == stations_.end() ? 1.0 : it->second.calibration;
}

std::optional<BreachSuspicion> DigitalTwin::Observe(
    const TelemetryFrame& frame) {
  if (updates_seen_ == 0) return std::nullopt;
  // Staleness guard: a prediction computed for meaningfully different
  // boundary conditions cannot arbitrate breaches; wait for the refresh.
  const double drift =
      std::abs(frame.exterior_wind_ms - prediction_boundary_wind_);
  if (drift > std::max(config_.stale_abs_floor_ms,
                       config_.stale_rel_tolerance * prediction_boundary_wind_)) {
    return std::nullopt;
  }
  for (auto& [id, st] : stations_) st.residual_sigma.reset();

  const bool calibrating = !calibrated();
  std::vector<const StationInfo*> deviating;
  std::vector<int32_t> deviating_ids;
  double weight_x = 0.0, weight_y = 0.0, weight_sum = 0.0, max_sigma = 0.0;

  for (const sensors::Reading& r : frame.stations) {
    auto sit = stations_.find(r.station_id);
    if (sit == stations_.end() || !sit->second.interior ||
        !sit->second.predicted.has_value()) {
      continue;
    }
    StationInfo& st = sit->second;
    const double predicted =
        std::max(*st.predicted, config_.prediction_floor_ms);

    if (calibrating) {
      // Learn measured/predicted during the healthy period.
      if (predicted > 1e-3) {
        const double ratio = r.wind_speed_ms / predicted;
        st.calibration = st.calibration_init
                             ? 0.7 * st.calibration + 0.3 * ratio
                             : ratio;
        st.calibration_init = true;
      }
      st.deviation_streak = 0;
      continue;
    }

    const double expected = st.calibration * predicted;
    const double sigma =
        std::abs(r.wind_speed_ms - expected) / config_.noise_floor_ms;
    st.residual_sigma = sigma;
    if (sigma <= config_.deviation_sigma && predicted > 1e-3) {
      // Healthy reading: keep the calibration tracking slow model drift
      // (the paper's "data calibrations ... necessary to maintain model
      // accuracy"). The update is gated to a multiplicative band around
      // the current calibration: gradual drift walks through the band,
      // but a breach-sized jump in the measured/predicted ratio (the
      // screen attenuation locally defeated) is never absorbed — even
      // when calm wind keeps its absolute residual under the sigma
      // threshold until conditions pick up.
      const double ratio = r.wind_speed_ms / predicted;
      if (ratio >= st.calibration * (1.0 - config_.recalibration_band) &&
          ratio <= st.calibration * (1.0 + config_.recalibration_band)) {
        st.calibration =
            (1.0 - config_.recalibration_alpha) * st.calibration +
            config_.recalibration_alpha * ratio;
      }
    }
    if (sigma > config_.deviation_sigma) {
      ++st.deviation_streak;
      if (st.deviation_streak >= config_.consecutive_required) {
        deviating.push_back(&st);
        deviating_ids.push_back(r.station_id);
        weight_x += st.x * sigma;
        weight_y += st.y * sigma;
        weight_sum += sigma;
        max_sigma = std::max(max_sigma, sigma);
      }
    } else {
      st.deviation_streak = 0;
    }
  }

  if (deviating.empty()) return std::nullopt;
  BreachSuspicion s;
  s.x_m = weight_x / weight_sum;
  s.y_m = weight_y / weight_sum;
  s.max_sigma = max_sigma;
  s.stations = std::move(deviating_ids);
  return s;
}

}  // namespace xg::core
