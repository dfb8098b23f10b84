// UE mobility: the random-waypoint process behind sim/churn's kMove
// events. The paper motivates DMRA with an environment that "changes over
// time" (§V: the best association changes as UEs move); the serving
// driver re-associates a UE each time its waypoint process moves it.
//
// RandomWaypoint — pick a uniform destination, travel at a uniform speed,
// pause, repeat. The standard ad-hoc evaluation model.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "geometry/geometry.hpp"
#include "util/rng.hpp"

namespace dmra {

/// Advances a population of positions through time. Implementations own
/// all per-UE state (destinations, speeds, pause clocks).
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Current positions (size fixed at construction).
  virtual const std::vector<Point>& positions() const = 0;

  /// Move everyone forward by dt seconds.
  virtual void advance(double dt_s) = 0;
};

struct RandomWaypointConfig {
  Rect area{0.0, 0.0, 1200.0, 1200.0};
  double speed_min_mps = 1.0;
  double speed_max_mps = 15.0;
  double pause_s = 0.0;  ///< dwell time at each waypoint
};

/// Build a random-waypoint process over `initial` positions.
std::unique_ptr<MobilityModel> make_random_waypoint(std::vector<Point> initial,
                                                    const RandomWaypointConfig& config,
                                                    Rng rng);

}  // namespace dmra
