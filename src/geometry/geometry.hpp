// 2-D geometry primitives used for the deployment area.
// All coordinates and distances are in meters.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace dmra {

/// A point in the deployment plane, meters.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// Squared distance (avoids the sqrt in hot loops). Inline, so that every
/// caller evaluates the one expression the same way.
inline double distance_sq(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Euclidean distance in meters.
inline double distance_m(const Point& a, const Point& b) { return std::sqrt(distance_sq(a, b)); }

/// Axis-aligned rectangle [x0, x1] × [y0, y1], meters.
struct Rect {
  double x0 = 0.0;
  double y0 = 0.0;
  double x1 = 0.0;
  double y1 = 0.0;

  double width() const { return x1 - x0; }
  double height() const { return y1 - y0; }
  bool contains(const Point& p) const;
  Point center() const { return {(x0 + x1) / 2.0, (y0 + y1) / 2.0}; }
};

/// `count` points uniformly distributed in `area`.
std::vector<Point> sample_uniform(const Rect& area, std::size_t count, Rng& rng);

/// rows × cols grid with the given spacing, centered inside `area`.
/// The first point is the bottom-left grid site; order is row-major.
std::vector<Point> grid_points(const Rect& area, std::size_t rows, std::size_t cols,
                               double spacing_m);

}  // namespace dmra
