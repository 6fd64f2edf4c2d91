// Time-weighted occupancy tracking for an integer gauge (buffer units in
// use, queue depths). Produces the paper's Fig. 8 / Fig. 13 statistics:
// time-weighted average and maximum number of units in use.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace sdnbuf::metrics {

class OccupancyTracker {
 public:
  // `now` is the observation start (integration begins here).
  explicit OccupancyTracker(sim::SimTime now = sim::SimTime::zero()) : last_change_(now) {}

  // Records that the gauge changed to `value` at time `now` (must be
  // non-decreasing in time).
  void set(std::uint64_t value, sim::SimTime now);

  void increment(sim::SimTime now) { set(current_ + 1, now); }
  void decrement(sim::SimTime now);

  [[nodiscard]] std::uint64_t current() const { return current_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }

  // Time-weighted mean over [start, now].
  [[nodiscard]] double time_weighted_mean(sim::SimTime now) const;

  // Restarts the statistics (keeps the current gauge value).
  void reset(sim::SimTime now);

 private:
  std::uint64_t current_ = 0;
  std::uint64_t max_ = 0;
  double unit_seconds_ = 0.0;  // integral of gauge over time
  sim::SimTime start_;
  sim::SimTime last_change_;
};

}  // namespace sdnbuf::metrics
