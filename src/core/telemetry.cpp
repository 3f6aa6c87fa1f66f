#include "core/telemetry.hpp"

#include <cmath>
#include <cstring>
#include <optional>
#include <span>

namespace xg::core {

namespace {
template <typename T>
void Put(std::vector<uint8_t>& out, const T& v) {
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
bool Take(std::span<const uint8_t> in, size_t& off, T& v) {
  if (off + sizeof(T) > in.size()) return false;
  std::memcpy(&v, in.data() + off, sizeof(T));
  off += sizeof(T);
  return true;
}

constexpr size_t kFrameHeaderBytes = 5 * sizeof(double) + sizeof(uint32_t);
}  // namespace

std::vector<uint8_t> SerializeFrame(const TelemetryFrame& f) {
  std::vector<uint8_t> out(kFrameHeaderBytes +
                           f.stations.size() * sizeof(sensors::Reading));
  const double fixed[] = {f.time_s, f.exterior_wind_ms, f.exterior_dir_deg,
                          f.exterior_temp_c, f.exterior_humidity_pct};
  const auto n = static_cast<uint32_t>(f.stations.size());
  std::memcpy(out.data(), fixed, sizeof(fixed));
  std::memcpy(out.data() + sizeof(fixed), &n, sizeof(n));
  if (n > 0) {
    std::memcpy(out.data() + kFrameHeaderBytes, f.stations.data(),
                n * sizeof(sensors::Reading));
  }
  return out;
}

std::optional<FrameSummary> SummarizeFrame(std::span<const uint8_t> bytes) {
  FrameSummary s;
  size_t off = 0;
  double skip = 0.0;
  uint32_t n = 0;
  if (!Take(bytes, off, skip) || !Take(bytes, off, s.exterior_wind_ms) ||
      !Take(bytes, off, skip) || !Take(bytes, off, s.exterior_temp_c) ||
      !Take(bytes, off, skip) || !Take(bytes, off, n) ||
      bytes.size() - off < n * sizeof(sensors::Reading)) {
    return std::nullopt;
  }
  s.stations = n;
  return s;
}

Result<TelemetryFrame> DeserializeFrame(std::span<const uint8_t> bytes) {
  TelemetryFrame f;
  size_t off = 0;
  uint32_t n = 0;
  if (!Take(bytes, off, f.time_s) || !Take(bytes, off, f.exterior_wind_ms) ||
      !Take(bytes, off, f.exterior_dir_deg) ||
      !Take(bytes, off, f.exterior_temp_c) ||
      !Take(bytes, off, f.exterior_humidity_pct) || !Take(bytes, off, n)) {
    return Status(ErrorCode::kInvalidArgument, "short telemetry frame");
  }
  if (bytes.size() - off < n * sizeof(sensors::Reading)) {
    return Status(ErrorCode::kInvalidArgument, "truncated station block");
  }
  f.stations.resize(n);
  for (sensors::Reading& r : f.stations) Take(bytes, off, r);
  return f;
}

TelemetryFrame MakeFrame(std::vector<sensors::Reading> stations,
                         const std::vector<bool>& is_interior, double time_s) {
  TelemetryFrame f;
  f.time_s = time_s;
  f.stations = std::move(stations);
  const std::vector<sensors::Reading>& readings = f.stations;
  double sum_w = 0.0, sum_t = 0.0, sum_h = 0.0;
  double sum_sin = 0.0, sum_cos = 0.0;
  size_t n_ext = 0;
  for (size_t i = 0; i < readings.size(); ++i) {
    if (i < is_interior.size() && is_interior[i]) continue;
    sum_w += readings[i].wind_speed_ms;
    sum_t += readings[i].temperature_c;
    sum_h += readings[i].humidity_pct;
    const double rad = readings[i].wind_dir_deg * M_PI / 180.0;
    sum_sin += std::sin(rad);
    sum_cos += std::cos(rad);
    ++n_ext;
  }
  if (n_ext > 0) {
    const double dn = static_cast<double>(n_ext);
    f.exterior_wind_ms = sum_w / dn;
    f.exterior_temp_c = sum_t / dn;
    f.exterior_humidity_pct = sum_h / dn;
    f.exterior_dir_deg =
        std::fmod(std::atan2(sum_sin, sum_cos) * 180.0 / M_PI + 360.0, 360.0);
  }
  return f;
}

std::vector<uint8_t> SerializeResult(const CfdResult& r) {
  std::vector<uint8_t> out;
  out.reserve(7 * sizeof(double) + sizeof(uint8_t) + sizeof(uint32_t) +
              r.predictions.size() * sizeof(StationPrediction));
  Put(out, r.trigger_time_s);
  Put(out, r.complete_time_s);
  Put(out, r.boundary_wind_ms);
  Put(out, r.boundary_dir_deg);
  Put(out, r.boundary_temp_c);
  Put(out, r.interior_mean_speed_ms);
  Put(out, r.interior_mean_temp_c);
  Put(out, static_cast<uint8_t>(r.spray_advisory_ok ? 1 : 0));
  Put(out, static_cast<uint32_t>(r.predictions.size()));
  for (const auto& p : r.predictions) Put(out, p);
  return out;
}

Result<CfdResult> DeserializeResult(const std::vector<uint8_t>& bytes) {
  CfdResult r;
  size_t off = 0;
  uint8_t flag = 0;
  uint32_t n = 0;
  if (!Take(bytes, off, r.trigger_time_s) ||
      !Take(bytes, off, r.complete_time_s) ||
      !Take(bytes, off, r.boundary_wind_ms) ||
      !Take(bytes, off, r.boundary_dir_deg) ||
      !Take(bytes, off, r.boundary_temp_c) ||
      !Take(bytes, off, r.interior_mean_speed_ms) ||
      !Take(bytes, off, r.interior_mean_temp_c) || !Take(bytes, off, flag) ||
      !Take(bytes, off, n)) {
    return Status(ErrorCode::kInvalidArgument, "short CFD result");
  }
  r.spray_advisory_ok = flag != 0;
  r.predictions.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!Take(bytes, off, r.predictions[i])) {
      return Status(ErrorCode::kInvalidArgument, "truncated predictions");
    }
  }
  return r;
}

}  // namespace xg::core
