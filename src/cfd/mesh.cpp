#include "cfd/fp_contract.hpp"  // first: no FMA contraction below
#include "cfd/mesh.hpp"

#include <algorithm>
#include <cmath>

namespace xg::cfd {

Mesh::Mesh(const MeshParams& params) : params_(params) {
  dx_ = params_.domain_x / params_.nx;
  dy_ = params_.domain_y / params_.ny;
  dz_ = params_.domain_z / params_.nz;
  types_.assign(cell_count(), CellType::kFluid);
  inside_house_.assign(cell_count(), 0);

  for (int k = 0; k < params_.nz; ++k) {
    for (int j = 0; j < params_.ny; ++j) {
      for (int i = 0; i < params_.nx; ++i) {
        const double x = X(i), y = Y(j), z = Z(k);
        if (x > params_.house_x0 && x < params_.house_x1 &&
            y > params_.house_y0 && y < params_.house_y1 &&
            z < params_.house_z1) {
          inside_house_[Index(i, j, k)] = 1;
          ++inside_house_count_;
        }
      }
    }
  }

  for (int k = 0; k < params_.nz; ++k) {
    for (int j = 0; j < params_.ny; ++j) {
      for (int i = 0; i < params_.nx; ++i) {
        const double x = X(i), y = Y(j), z = Z(k);
        const bool in_xy = x >= params_.house_x0 && x <= params_.house_x1 &&
                           y >= params_.house_y0 && y <= params_.house_y1;
        if (!in_xy || z > params_.house_z1 + dz_) continue;

        // Screen: one-cell-thick envelope (side walls and roof).
        const bool near_wall_x = std::abs(x - params_.house_x0) <= dx_ ||
                                 std::abs(x - params_.house_x1) <= dx_;
        const bool near_wall_y = std::abs(y - params_.house_y0) <= dy_ ||
                                 std::abs(y - params_.house_y1) <= dy_;
        const bool near_roof = std::abs(z - params_.house_z1) <= dz_;
        const size_t idx = Index(i, j, k);
        if ((near_wall_x || near_wall_y || near_roof) &&
            z <= params_.house_z1 + dz_) {
          types_[idx] = CellType::kScreen;
        } else if (z <= params_.canopy_z1) {
          types_[idx] = CellType::kCanopy;
        }
      }
    }
  }
}

void Mesh::Locate(double x, double y, double z, int& i, int& j, int& k) const {
  i = std::clamp(static_cast<int>(x / dx_), 0, params_.nx - 1);
  j = std::clamp(static_cast<int>(y / dy_), 0, params_.ny - 1);
  k = std::clamp(static_cast<int>(z / dz_), 0, params_.nz - 1);
}

size_t Mesh::CountType(CellType t) const {
  return static_cast<size_t>(std::count(types_.begin(), types_.end(), t));
}

}  // namespace xg::cfd
