#include "cfd/fp_contract.hpp"  // first: no FMA contraction below
#include "cfd/vtk.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

namespace xg::cfd {

Status WriteVtk(const Solver& solver, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status(ErrorCode::kUnavailable, "cannot open " + path);
  }
  const Mesh& mesh = solver.mesh();
  const int nx = mesh.nx(), ny = mesh.ny(), nz = mesh.nz();
  std::fprintf(f, "# vtk DataFile Version 3.0\n");
  std::fprintf(f, "xGFabric CUPS CFD output\nASCII\n");
  std::fprintf(f, "DATASET STRUCTURED_POINTS\n");
  std::fprintf(f, "DIMENSIONS %d %d %d\n", nx, ny, nz);
  std::fprintf(f, "ORIGIN %.3f %.3f %.3f\n", mesh.dx() / 2, mesh.dy() / 2,
               mesh.dz() / 2);
  std::fprintf(f, "SPACING %.3f %.3f %.3f\n", mesh.dx(), mesh.dy(), mesh.dz());
  std::fprintf(f, "POINT_DATA %zu\n", mesh.cell_count());

  std::fprintf(f, "SCALARS speed double 1\nLOOKUP_TABLE default\n");
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        std::fprintf(f, "%.4f\n", solver.SpeedAt(i, j, k));
      }
    }
  }
  std::fprintf(f, "SCALARS temperature double 1\nLOOKUP_TABLE default\n");
  for (double t : solver.temperature()) std::fprintf(f, "%.4f\n", t);
  std::fprintf(f, "SCALARS pressure double 1\nLOOKUP_TABLE default\n");
  for (double p : solver.pressure()) std::fprintf(f, "%.5f\n", p);
  std::fprintf(f, "VECTORS velocity double\n");
  for (size_t c = 0; c < mesh.cell_count(); ++c) {
    std::fprintf(f, "%.4f %.4f %.4f\n", solver.u()[c], solver.v()[c],
                 solver.w()[c]);
  }
  std::fclose(f);
  return Status::Ok();
}

namespace {
/// Blue -> cyan -> green -> yellow -> red color map on [0, 1].
void ColorMap(double t, unsigned char& r, unsigned char& g, unsigned char& b) {
  t = std::clamp(t, 0.0, 1.0);
  const double r4 = std::clamp(1.5 - std::abs(4.0 * t - 3.0), 0.0, 1.0);
  const double g4 = std::clamp(1.5 - std::abs(4.0 * t - 2.0), 0.0, 1.0);
  const double b4 = std::clamp(1.5 - std::abs(4.0 * t - 1.0), 0.0, 1.0);
  r = static_cast<unsigned char>(255.0 * r4);
  g = static_cast<unsigned char>(255.0 * g4);
  b = static_cast<unsigned char>(255.0 * b4);
}
}  // namespace

Status WriteSlicePpm(const Solver& solver, double z_m, const std::string& path,
                     int scale) {
  const Mesh& mesh = solver.mesh();
  int i0, j0, kslice;
  mesh.Locate(0.0, 0.0, z_m, i0, j0, kslice);
  const int nx = mesh.nx(), ny = mesh.ny();
  const int w = nx * scale, h = ny * scale;

  double vmax = 1e-9;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      vmax = std::max(vmax, solver.SpeedAt(i, j, kslice));
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status(ErrorCode::kUnavailable, "cannot open " + path);
  }
  std::fprintf(f, "P6\n%d %d\n255\n", w, h);
  std::vector<unsigned char> row(static_cast<size_t>(w) * 3);
  const MeshParams& mp = mesh.params();
  for (int py = h - 1; py >= 0; --py) {  // north-up
    const int j = py / scale;
    const double y = mesh.Y(j);
    for (int px = 0; px < w; ++px) {
      const int i = px / scale;
      const double x = mesh.X(i);
      unsigned char r, g, b;
      ColorMap(solver.SpeedAt(i, j, kslice) / vmax, r, g, b);
      // House outline.
      const bool on_x_edge =
          (std::abs(x - mp.house_x0) < mesh.dx() ||
           std::abs(x - mp.house_x1) < mesh.dx()) &&
          y >= mp.house_y0 && y <= mp.house_y1;
      const bool on_y_edge =
          (std::abs(y - mp.house_y0) < mesh.dy() ||
           std::abs(y - mp.house_y1) < mesh.dy()) &&
          x >= mp.house_x0 && x <= mp.house_x1;
      if (on_x_edge || on_y_edge) r = g = b = 0;
      row[static_cast<size_t>(px) * 3 + 0] = r;
      row[static_cast<size_t>(px) * 3 + 1] = g;
      row[static_cast<size_t>(px) * 3 + 2] = b;
    }
    std::fwrite(row.data(), row.size(), 1, f);
  }
  std::fclose(f);
  return Status::Ok();
}

}  // namespace xg::cfd
