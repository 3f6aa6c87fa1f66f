#include "cfd/case.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace xg::cfd {

std::string FormatCase(const CfdCase& c) {
  std::ostringstream os;
  os.precision(10);
  os << "# xGFabric CFD case file\n";
  os << "name = " << c.name << "\n";
  os << "steps = " << c.steps << "\n";
  os << "mesh.domain_x = " << c.mesh.domain_x << "\n";
  os << "mesh.domain_y = " << c.mesh.domain_y << "\n";
  os << "mesh.domain_z = " << c.mesh.domain_z << "\n";
  os << "mesh.house_x0 = " << c.mesh.house_x0 << "\n";
  os << "mesh.house_x1 = " << c.mesh.house_x1 << "\n";
  os << "mesh.house_y0 = " << c.mesh.house_y0 << "\n";
  os << "mesh.house_y1 = " << c.mesh.house_y1 << "\n";
  os << "mesh.house_z1 = " << c.mesh.house_z1 << "\n";
  os << "mesh.canopy_z1 = " << c.mesh.canopy_z1 << "\n";
  os << "mesh.nx = " << c.mesh.nx << "\n";
  os << "mesh.ny = " << c.mesh.ny << "\n";
  os << "mesh.nz = " << c.mesh.nz << "\n";
  os << "solver.dt_s = " << c.solver.dt_s << "\n";
  os << "solver.eddy_viscosity = " << c.solver.eddy_viscosity << "\n";
  os << "solver.thermal_diffusivity = " << c.solver.thermal_diffusivity << "\n";
  os << "solver.screen_drag = " << c.solver.screen_drag << "\n";
  os << "solver.canopy_drag = " << c.solver.canopy_drag << "\n";
  os << "solver.canopy_heat_w = " << c.solver.canopy_heat_w << "\n";
  os << "solver.buoyancy_beta = " << c.solver.buoyancy_beta << "\n";
  os << "solver.poisson_iters = " << c.solver.poisson_iters << "\n";
  os << "boundary.wind_speed_ms = " << c.boundary.wind_speed_ms << "\n";
  os << "boundary.wind_dir_deg = " << c.boundary.wind_dir_deg << "\n";
  os << "boundary.exterior_temp_c = " << c.boundary.exterior_temp_c << "\n";
  os << "boundary.interior_temp_c = " << c.boundary.interior_temp_c << "\n";
  return os.str();
}

Result<CfdCase> ParseCase(const std::string& text) {
  CfdCase c;
  std::map<std::string, std::string> kv;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status(ErrorCode::kInvalidArgument, "malformed line: " + line);
    }
    auto trim = [](std::string s) {
      const size_t b = s.find_first_not_of(" \t");
      const size_t e = s.find_last_not_of(" \t\r");
      return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
    };
    kv[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }

  auto take_str = [&](const char* key, std::string& out) {
    auto it = kv.find(key);
    if (it != kv.end()) {
      out = it->second;
      kv.erase(it);
    }
  };
  auto take_num = [&](const char* key, auto& out) {
    auto it = kv.find(key);
    if (it != kv.end()) {
      out = static_cast<std::remove_reference_t<decltype(out)>>(
          std::stod(it->second));
      kv.erase(it);
    }
  };

  take_str("name", c.name);
  take_num("steps", c.steps);
  take_num("mesh.domain_x", c.mesh.domain_x);
  take_num("mesh.domain_y", c.mesh.domain_y);
  take_num("mesh.domain_z", c.mesh.domain_z);
  take_num("mesh.house_x0", c.mesh.house_x0);
  take_num("mesh.house_x1", c.mesh.house_x1);
  take_num("mesh.house_y0", c.mesh.house_y0);
  take_num("mesh.house_y1", c.mesh.house_y1);
  take_num("mesh.house_z1", c.mesh.house_z1);
  take_num("mesh.canopy_z1", c.mesh.canopy_z1);
  take_num("mesh.nx", c.mesh.nx);
  take_num("mesh.ny", c.mesh.ny);
  take_num("mesh.nz", c.mesh.nz);
  take_num("solver.dt_s", c.solver.dt_s);
  take_num("solver.eddy_viscosity", c.solver.eddy_viscosity);
  take_num("solver.thermal_diffusivity", c.solver.thermal_diffusivity);
  take_num("solver.screen_drag", c.solver.screen_drag);
  take_num("solver.canopy_drag", c.solver.canopy_drag);
  take_num("solver.canopy_heat_w", c.solver.canopy_heat_w);
  take_num("solver.buoyancy_beta", c.solver.buoyancy_beta);
  take_num("solver.poisson_iters", c.solver.poisson_iters);
  take_num("boundary.wind_speed_ms", c.boundary.wind_speed_ms);
  take_num("boundary.wind_dir_deg", c.boundary.wind_dir_deg);
  take_num("boundary.exterior_temp_c", c.boundary.exterior_temp_c);
  take_num("boundary.interior_temp_c", c.boundary.interior_temp_c);

  if (!kv.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "unknown case key: " + kv.begin()->first);
  }
  if (c.solver.poisson_iters < 1) {
    return Status(ErrorCode::kInvalidArgument,
                  "solver.poisson_iters must be at least 1");
  }
  return c;
}

Status WriteCaseFile(const CfdCase& c, const std::string& path) {
  std::ofstream f(path);
  if (!f) return Status(ErrorCode::kUnavailable, "cannot open " + path);
  f << FormatCase(c);
  return f.good() ? Status::Ok()
                  : Status(ErrorCode::kUnavailable, "write failed: " + path);
}

Result<CfdCase> ReadCaseFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status(ErrorCode::kNotFound, "cannot open " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return ParseCase(os.str());
}

Boundary BoundaryFromTelemetry(double exterior_wind_ms, double wind_dir_deg,
                               double exterior_temp_c,
                               double interior_temp_c) {
  Boundary b;
  b.wind_speed_ms = exterior_wind_ms;
  b.wind_dir_deg = wind_dir_deg;
  b.exterior_temp_c = exterior_temp_c;
  b.interior_temp_c = interior_temp_c;
  return b;
}

}  // namespace xg::cfd
