#include "mobility/models.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace dmra {

namespace {

class RandomWaypointModel final : public MobilityModel {
 public:
  RandomWaypointModel(std::vector<Point> initial, const RandomWaypointConfig& config,
                      Rng rng)
      : config_(config), rng_(std::move(rng)), positions_(std::move(initial)) {
    DMRA_REQUIRE(config_.speed_min_mps > 0.0);
    DMRA_REQUIRE(config_.speed_min_mps <= config_.speed_max_mps);
    DMRA_REQUIRE(config_.pause_s >= 0.0);
    states_.resize(positions_.size());
    for (std::size_t i = 0; i < positions_.size(); ++i) pick_waypoint(i);
  }

  const std::vector<Point>& positions() const override { return positions_; }

  void advance(double dt_s) override {
    DMRA_REQUIRE(dt_s >= 0.0);
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      double remaining = dt_s;
      while (remaining > 0.0) {
        UeState& st = states_[i];
        if (st.pausing > 0.0) {
          const double pause = std::min(st.pausing, remaining);
          st.pausing -= pause;
          remaining -= pause;
          continue;
        }
        const double dist = distance_m(positions_[i], st.destination);
        const double reach = st.speed_mps * remaining;
        if (reach >= dist) {
          // Arrive, start the pause, then a new leg.
          positions_[i] = st.destination;
          remaining -= st.speed_mps > 0.0 ? dist / st.speed_mps : remaining;
          st.pausing = config_.pause_s;
          pick_waypoint(i);
        } else {
          const double frac = reach / dist;
          positions_[i].x += (st.destination.x - positions_[i].x) * frac;
          positions_[i].y += (st.destination.y - positions_[i].y) * frac;
          remaining = 0.0;
        }
      }
    }
  }

 private:
  struct UeState {
    Point destination;
    double speed_mps = 1.0;
    double pausing = 0.0;
  };

  void pick_waypoint(std::size_t i) {
    states_[i].destination = {rng_.uniform_real(config_.area.x0, config_.area.x1),
                              rng_.uniform_real(config_.area.y0, config_.area.y1)};
    states_[i].speed_mps = rng_.uniform_real(config_.speed_min_mps, config_.speed_max_mps);
  }

  RandomWaypointConfig config_;
  Rng rng_;
  std::vector<Point> positions_;
  std::vector<UeState> states_;
};

}  // namespace

std::unique_ptr<MobilityModel> make_random_waypoint(std::vector<Point> initial,
                                                    const RandomWaypointConfig& config,
                                                    Rng rng) {
  return std::make_unique<RandomWaypointModel>(std::move(initial), config, std::move(rng));
}

}  // namespace dmra
