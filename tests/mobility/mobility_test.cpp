#include <gtest/gtest.h>

#include "mobility/models.hpp"
#include "util/require.hpp"

namespace dmra {
namespace {

const Rect kArea{0, 0, 1200, 1200};

std::vector<Point> grid_population(std::size_t n) {
  std::vector<Point> pts;
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({100.0 + 10.0 * static_cast<double>(i % 30),
                   100.0 + 10.0 * static_cast<double>(i / 30)});
  return pts;
}

TEST(RandomWaypoint, MovesEveryoneWithinBounds) {
  RandomWaypointConfig cfg;
  cfg.area = kArea;
  auto model = make_random_waypoint(grid_population(50), cfg, Rng("rw", 1));
  const std::vector<Point> before = model->positions();
  model->advance(10.0);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (!(model->positions()[i] == before[i])) ++moved;
    EXPECT_TRUE(kArea.contains(model->positions()[i]));
  }
  EXPECT_EQ(moved, before.size());  // no pause → everyone in motion
}

TEST(RandomWaypoint, SpeedBoundsRespected) {
  RandomWaypointConfig cfg;
  cfg.area = kArea;
  cfg.speed_min_mps = 2.0;
  cfg.speed_max_mps = 4.0;
  auto model = make_random_waypoint(grid_population(40), cfg, Rng("rw", 2));
  const double dt = 1.0;
  for (int step = 0; step < 20; ++step) {
    const std::vector<Point> before = model->positions();
    model->advance(dt);
    for (std::size_t i = 0; i < before.size(); ++i) {
      const double moved = distance_m(before[i], model->positions()[i]);
      // Waypoint arrivals + re-targeting can shorten a step, never extend it.
      EXPECT_LE(moved, cfg.speed_max_mps * dt + 1e-9);
    }
  }
}

TEST(RandomWaypoint, PauseHoldsPosition) {
  RandomWaypointConfig cfg;
  cfg.area = Rect{0, 0, 10, 10};  // tiny area → waypoints reached instantly
  cfg.pause_s = 1e9;              // then pause ~forever
  auto model = make_random_waypoint({{5, 5}}, cfg, Rng("rw", 3));
  model->advance(100.0);  // reaches the first waypoint and parks
  const Point parked = model->positions()[0];
  model->advance(100.0);
  EXPECT_EQ(model->positions()[0], parked);
}

TEST(RandomWaypoint, DeterministicPerSeed) {
  RandomWaypointConfig cfg;
  cfg.area = kArea;
  auto a = make_random_waypoint(grid_population(20), cfg, Rng("rw", 7));
  auto b = make_random_waypoint(grid_population(20), cfg, Rng("rw", 7));
  a->advance(5.0);
  b->advance(5.0);
  EXPECT_EQ(a->positions(), b->positions());
}

TEST(Models, Contracts) {
  RandomWaypointConfig bad;
  bad.speed_min_mps = 0.0;
  EXPECT_THROW(make_random_waypoint(grid_population(1), bad, Rng("x", 1)),
               ContractViolation);
  auto model = make_random_waypoint(grid_population(1), {}, Rng("x", 1));
  EXPECT_THROW(model->advance(-1.0), ContractViolation);
}

}  // namespace
}  // namespace dmra
