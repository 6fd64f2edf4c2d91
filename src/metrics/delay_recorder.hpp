// Per-flow delay bookkeeping, following the metric definitions of §III.B:
//
//   flow setup delay      first packet of a flow entering the switch ->
//                         that packet leaving the switch
//   controller delay      packet_in leaving the switch -> first
//                         flow_mod/packet_out for that flow arriving back
//   switch delay          flow setup delay - controller delay
//   flow forwarding delay first packet entering -> LAST packet of the flow
//                         leaving the switch (§V.B.4)
//
// The switch calls the `on_*` hooks as events happen; `finalize` turns the
// per-flow records into sample sets.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "sim/time.hpp"
#include "util/stats.hpp"

namespace sdnbuf::metrics {

// Flows tagged with this id (warm-up traffic) are not recorded.
inline constexpr std::uint64_t kUntrackedFlow = ~std::uint64_t{0};

class DelayRecorder {
 public:
  void on_first_packet_arrival(std::uint64_t flow_id, sim::SimTime t);
  void on_packet_departure(std::uint64_t flow_id, sim::SimTime t);
  void on_packet_in_sent(std::uint64_t flow_id, sim::SimTime t);
  void on_response_arrival(std::uint64_t flow_id, sim::SimTime t);
  void on_packet_delivered(std::uint64_t flow_id, sim::SimTime t);

  // 48 bytes: one record per flow ever seen, so its size is the recorder's
  // memory per flow. A timestamp that has not happened yet holds kUnset,
  // which sorts before every simulated time.
  struct FlowRecord {
    static constexpr sim::SimTime kUnset =
        sim::SimTime::nanoseconds(std::numeric_limits<std::int64_t>::min());
    [[nodiscard]] static bool is_set(sim::SimTime t) { return t != kUnset; }

    sim::SimTime first_arrival = kUnset;
    sim::SimTime first_departure = kUnset;
    sim::SimTime last_departure = kUnset;
    sim::SimTime pkt_in_sent = kUnset;
    sim::SimTime response_arrival = kUnset;
    std::uint32_t packets_departed = 0;
    std::uint32_t packets_delivered = 0;
  };

  struct Result {
    util::Samples setup_ms;        // Fig. 5 / Fig. 12(a)
    util::Samples controller_ms;   // Fig. 6
    util::Samples switch_ms;       // Fig. 7
    util::Samples forwarding_ms;   // Fig. 12(b)
    std::uint64_t flows_seen = 0;
    std::uint64_t flows_complete = 0;  // with both arrival and departure
    std::uint64_t packets_departed = 0;
    std::uint64_t packets_delivered = 0;
  };

  // Aggregates all flow records. Flows that never completed setup are
  // counted in `flows_seen` but contribute no samples.
  [[nodiscard]] Result finalize() const;

  [[nodiscard]] const FlowRecord* record(std::uint64_t flow_id) const;
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }

 private:
  // A node map, not util::FlatMap: finalize() emits samples in this map's
  // bucket order, and the committed results and benchmark fingerprints
  // depend on that order.
  FlowRecord& flow(std::uint64_t flow_id) { return flows_[flow_id]; }
  std::unordered_map<std::uint64_t, FlowRecord> flows_;
};

}  // namespace sdnbuf::metrics
