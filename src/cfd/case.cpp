#include "cfd/fp_contract.hpp"  // first: no FMA contraction below
#include "cfd/case.hpp"

#include <fstream>
#include <sstream>

#include "common/keyvalue.hpp"

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
  Result<KeyValueDeck> parsed = KeyValueDeck::Parse(text);
  if (!parsed.ok()) return parsed.status();
  KeyValueDeck kv = parsed.take();
  CfdCase c;
  kv.TakeString("name", c.name);
  kv.TakeNumber("steps", c.steps);
  kv.TakeNumber("mesh.domain_x", c.mesh.domain_x);
  kv.TakeNumber("mesh.domain_y", c.mesh.domain_y);
  kv.TakeNumber("mesh.domain_z", c.mesh.domain_z);
  kv.TakeNumber("mesh.house_x0", c.mesh.house_x0);
  kv.TakeNumber("mesh.house_x1", c.mesh.house_x1);
  kv.TakeNumber("mesh.house_y0", c.mesh.house_y0);
  kv.TakeNumber("mesh.house_y1", c.mesh.house_y1);
  kv.TakeNumber("mesh.house_z1", c.mesh.house_z1);
  kv.TakeNumber("mesh.canopy_z1", c.mesh.canopy_z1);
  kv.TakeNumber("mesh.nx", c.mesh.nx);
  kv.TakeNumber("mesh.ny", c.mesh.ny);
  kv.TakeNumber("mesh.nz", c.mesh.nz);
  kv.TakeNumber("solver.dt_s", c.solver.dt_s);
  kv.TakeNumber("solver.eddy_viscosity", c.solver.eddy_viscosity);
  kv.TakeNumber("solver.thermal_diffusivity", c.solver.thermal_diffusivity);
  kv.TakeNumber("solver.screen_drag", c.solver.screen_drag);
  kv.TakeNumber("solver.canopy_drag", c.solver.canopy_drag);
  kv.TakeNumber("solver.canopy_heat_w", c.solver.canopy_heat_w);
  kv.TakeNumber("solver.buoyancy_beta", c.solver.buoyancy_beta);
  kv.TakeNumber("solver.poisson_iters", c.solver.poisson_iters);
  kv.TakeNumber("boundary.wind_speed_ms", c.boundary.wind_speed_ms);
  kv.TakeNumber("boundary.wind_dir_deg", c.boundary.wind_dir_deg);
  kv.TakeNumber("boundary.exterior_temp_c", c.boundary.exterior_temp_c);
  kv.TakeNumber("boundary.interior_temp_c", c.boundary.interior_temp_c);

  if (Status s = kv.Finish("case"); !s.ok()) return s;
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
