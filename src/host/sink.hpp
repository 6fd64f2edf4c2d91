// The receiving host: counts deliveries, tracks per-flow completeness and
// end-to-end latency samples, and feeds the delay recorder's
// packets_delivered conservation counter.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <utility>

#include "metrics/delay_recorder.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"
#include "util/stats.hpp"

namespace sdnbuf::host {

class HostSink {
 public:
  explicit HostSink(sim::Simulator& sim) : sim_(&sim) {}

  void set_delay_recorder(metrics::DelayRecorder* recorder) { recorder_ = recorder; }

  // Delivery feedback for closed-loop senders: fires on every first-copy
  // arrival of a tracked packet (duplicates from spurious retransmits are
  // counted but not re-reported).
  void set_on_receive(std::function<void(const net::Packet&)> cb) { on_receive_ = std::move(cb); }

  // Telemetry harvest point: fires once per first-copy tracked delivery with
  // the packet (including its INT hop-stamp stack) and the arrival time. A
  // std::function rather than a FabricObservatory* keeps the host layer free
  // of an obs-trace link dependency.
  void set_telemetry_tap(std::function<void(const net::Packet&, sim::SimTime)> tap) {
    telemetry_tap_ = std::move(tap);
  }

  // Delivery callback (wired to the far end of the switch->host link).
  void receive(const net::Packet& packet);

  [[nodiscard]] std::uint64_t packets_received() const { return packets_received_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  [[nodiscard]] std::uint64_t duplicate_packets() const { return duplicates_; }
  [[nodiscard]] sim::SimTime last_arrival() const { return last_arrival_; }

  // End-to-end latency (source emission -> sink arrival), milliseconds.
  [[nodiscard]] const util::Samples& latency_ms() const { return latency_ms_; }

  // Packets received for one flow, duplicates included.
  [[nodiscard]] std::uint64_t flow_packets(std::uint64_t flow_id) const;

  void reset();

 private:
  sim::Simulator* sim_;
  metrics::DelayRecorder* recorder_ = nullptr;
  std::function<void(const net::Packet&)> on_receive_;
  std::function<void(const net::Packet&, sim::SimTime)> telemetry_tap_;
  std::uint64_t packets_received_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t duplicates_ = 0;
  sim::SimTime last_arrival_;
  util::Samples latency_ms_;
  // Exact seen-set in 8 bytes per flow. Every seq below `next` has arrived;
  // a first copy that arrives ahead of `next` waits in `ahead_` until the
  // gap closes. Senders number a flow's packets densely from 0 and links
  // are FIFO, so `ahead_` stays empty unless a path reorders packets.
  struct FlowSeen {
    std::uint32_t next = 0;    // lowest seq not yet received
    std::uint32_t copies = 0;  // deliveries, duplicates included
  };
  // Records the arrival of (flow, seq); true on its first copy.
  bool mark_seen(std::uint64_t flow_id, std::uint32_t seq);

  util::FlatMap<std::uint64_t, FlowSeen, util::Mix64Hash> seen_;
  std::set<std::pair<std::uint64_t, std::uint32_t>> ahead_;
};

}  // namespace sdnbuf::host
