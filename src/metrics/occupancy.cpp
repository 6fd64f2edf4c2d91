#include "metrics/occupancy.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sdnbuf::metrics {

void OccupancyTracker::set(std::uint64_t value, sim::SimTime now) {
  SDNBUF_CHECK_MSG(now >= last_change_, "occupancy observations must be time-ordered");
  unit_seconds_ += static_cast<double>(current_) * (now - last_change_).sec();
  last_change_ = now;
  current_ = value;
  max_ = std::max(max_, value);
}

void OccupancyTracker::decrement(sim::SimTime now) {
  SDNBUF_CHECK(current_ > 0);
  set(current_ - 1, now);
}

double OccupancyTracker::time_weighted_mean(sim::SimTime now) const {
  const double window = (now - start_).sec();
  if (window <= 0.0) return static_cast<double>(current_);
  const double integral =
      unit_seconds_ + static_cast<double>(current_) * (now - last_change_).sec();
  return integral / window;
}

void OccupancyTracker::reset(sim::SimTime now) {
  start_ = now;
  last_change_ = now;
  unit_seconds_ = 0.0;
  max_ = current_;
}

}  // namespace sdnbuf::metrics
