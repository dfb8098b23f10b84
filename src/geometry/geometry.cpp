#include "geometry/geometry.hpp"

#include "util/require.hpp"

namespace dmra {

bool Rect::contains(const Point& p) const {
  return p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1;
}

std::vector<Point> sample_uniform(const Rect& area, std::size_t count, Rng& rng) {
  DMRA_REQUIRE(area.width() >= 0 && area.height() >= 0);
  std::vector<Point> pts;
  pts.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    pts.push_back({rng.uniform_real(area.x0, area.x1), rng.uniform_real(area.y0, area.y1)});
  return pts;
}

std::vector<Point> grid_points(const Rect& area, std::size_t rows, std::size_t cols,
                               double spacing_m) {
  DMRA_REQUIRE(rows > 0 && cols > 0 && spacing_m > 0);
  const double grid_w = static_cast<double>(cols - 1) * spacing_m;
  const double grid_h = static_cast<double>(rows - 1) * spacing_m;
  const Point c = area.center();
  const double ox = c.x - grid_w / 2.0;
  const double oy = c.y - grid_h / 2.0;
  std::vector<Point> pts;
  pts.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t cc = 0; cc < cols; ++cc)
      pts.push_back({ox + static_cast<double>(cc) * spacing_m,
                     oy + static_cast<double>(r) * spacing_m});
  return pts;
}

}  // namespace dmra
