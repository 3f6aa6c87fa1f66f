// Spray planner: CFD-backed decision support for applying inputs.
//
// The paper's motivating grower decision (Section 2): "the grower must
// make a decision regarding timing, location, and quantity of input to
// apply." This example sweeps candidate application hours across a
// simulated day, runs the airflow solver for each hour's conditions,
// transports a released spray through the resulting field, and ranks the
// windows by canopy coverage vs drift loss through the screen — then
// cross-checks the ranking against the InterventionAdvisor's thresholds.
//
//   $ ./spray_planner
#include <cstdio>
#include <iostream>

#include "cfd/scalar.hpp"
#include "cfd/solver.hpp"
#include "common/table.hpp"
#include "core/advisor.hpp"
#include "sensors/atmosphere.hpp"

int main() {
  using namespace xg;

  sensors::Atmosphere atmo(sensors::AtmosphereParams{}, 808);
  cfd::MeshParams mp;
  mp.nx = 36;
  mp.ny = 30;
  mp.nz = 10;
  cfd::Mesh mesh(mp);
  core::InterventionAdvisor advisor;

  cfd::SprayRelease release;
  release.x_m = (mp.house_x0 + mp.house_x1) / 2.0;
  release.y_m = (mp.house_y0 + mp.house_y1) / 2.0;
  release.radius_m = 12.0;
  release.duration_s = 45.0;

  std::puts("Evaluating candidate application windows across the day...\n");
  Table table({"Hour", "Wind (m/s)", "Interior (m/s)", "Canopy dose",
               "Drift loss", "Advisor"});
  double best_score = -1.0;
  int best_hour = -1;

  for (int hour : {5, 8, 11, 14, 17, 20, 23}) {
    // Conditions at this hour (deterministic baseline + the day's noise).
    const double t = hour * 3600.0;
    atmo.Advance(t - atmo.now_s());
    const sensors::AtmoState ext = atmo.Current();

    cfd::Solver solver(mesh, cfd::SolverParams{});
    cfd::Boundary bc;
    bc.wind_speed_ms = ext.wind_speed_ms;
    bc.wind_dir_deg = ext.wind_dir_deg;
    bc.exterior_temp_c = ext.temperature_c;
    bc.interior_temp_c = ext.temperature_c + 1.8;
    solver.Initialize(bc);
    solver.Run(80);

    const cfd::SprayStats spray =
        cfd::SimulateSpray(solver, release, 180.0, 0.02);

    core::CfdResult result;
    result.boundary_wind_ms = ext.wind_speed_ms;
    result.interior_mean_speed_ms = solver.InteriorMeanSpeed();
    result.interior_mean_temp_c = solver.InteriorMeanTemperature();
    core::TelemetryFrame frame;
    frame.exterior_humidity_pct = ext.humidity_pct;
    const auto advice = advisor.Advise(result, frame);
    const char* verdict = "HOLD";
    for (const core::Advisory& a : advice) {
      if (a.kind == core::ActionKind::kSprayWindow) verdict = "OK";
    }

    const double score =
        spray.canopy_dose * (1.0 - spray.escaped_fraction);
    if (score > best_score) {
      best_score = score;
      best_hour = hour;
    }
    char hour_str[8];
    std::snprintf(hour_str, sizeof(hour_str), "%02d:00", hour);
    table.AddRow({hour_str, Table::Num(ext.wind_speed_ms),
                  Table::Num(solver.InteriorMeanSpeed()),
                  Table::Num(spray.canopy_dose, 1),
                  Table::Num(spray.escaped_fraction * 100, 1) + "%", verdict});
  }
  table.Print(std::cout, "Spray window ranking (drift-transport model)");
  std::printf("\nBest application window: %02d:00 (highest retained canopy "
              "dose).\nExpected shape: calm night/early-morning hours win; "
              "midday convective wind\ndrives both interior circulation and "
              "drift loss through the screen.\n",
              best_hour);
  return 0;
}
