// Event-loop profiler: per-component attribution of callback wall time.
//
// Implements `sim::ProfileSink`. Components open a `sim::ScopedProfileTag`
// at the top of their scheduled callbacks (the tag costs two thread-local
// writes whether or not profiling is on); when a profiler is installed via
// `Simulator::set_profile_sink`, each event is timed with steady_clock and
// accumulated under its outermost tag. Wall time never feeds back into sim
// time, so profiled runs stay bit-identical to unprofiled ones.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"

namespace sdnbuf::obs {

class EventLoopProfiler final : public sim::ProfileSink {
 public:
  struct Row {
    std::string tag;
    std::uint64_t events = 0;
    double total_s = 0.0;
    double max_s = 0.0;
    double mean_us() const { return events == 0 ? 0.0 : total_s / double(events) * 1e6; }
  };

  void on_event(const char* tag, double wall_seconds) override;

  [[nodiscard]] std::uint64_t total_events() const { return total_events_; }
  [[nodiscard]] double total_seconds() const { return total_s_; }

  // Rows sorted by total wall time, descending. `top_n == 0` means all.
  [[nodiscard]] std::vector<Row> table(std::size_t top_n = 0) const;

  // Human-readable top-N table (share%, events, total, mean, max per tag).
  void write_report(std::ostream& out, std::size_t top_n = 10) const;

  void reset();

 private:
  // Tags are raw pointers with stable storage (string literals / component
  // names); identical text from different components merges by content.
  // `by_ptr_` short-circuits the per-event string hash to one pointer-keyed
  // lookup; it relies on tag pointers staying valid for the profiler's
  // lifetime, so reset() between simulations if components are rebuilt.
  // (unordered_map is node-based: Row* stays valid across rehashes.)
  std::unordered_map<std::string, Row> rows_;
  std::unordered_map<const char*, Row*> by_ptr_;
  std::uint64_t total_events_ = 0;
  double total_s_ = 0.0;
};

}  // namespace sdnbuf::obs
