// The benchmark's traced run and its per-layer metrics.
//
// End-to-end numbers are measured with tracing off. This file holds the
// separate traced run: the workload is run once more with a Recorder on
// every switch's observer chain and the event-loop profiler on the
// simulator, then the recorded inputs are replayed through standalone layer
// objects (codec, flow table, buffer managers, link, egress scheduler, MMU,
// event core) with the benchmark's own spans around each call. Counts come
// from the recorders and the experiments' result fields; host time per call
// comes from the spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/flow_key.hpp"
#include "net/packet.hpp"
#include "openflow/messages.hpp"
#include "switchd/flow_table.hpp"
#include "verify/observer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace net = sdnbuf::net;
namespace of = sdnbuf::of;
namespace sim = sdnbuf::sim;
namespace verify = sdnbuf::verify;

// What one switch's observer stream showed.
struct LayerCounts {
  std::uint64_t ingress = 0;      // packets arriving at the switch (table lookups)
  std::uint64_t misses = 0;       // table misses: no-match packet_ins + flow-buffer joins
  std::uint64_t egress_drops = 0;
  std::uint64_t buffer_stores = 0;
  std::uint64_t buffer_units = 0;  // stores that opened a new buffer_id
  std::uint64_t pkt_ins = 0;
  std::uint64_t full_frame_pkt_ins = 0;
  std::uint64_t control_msgs = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t rule_adds = 0;
  std::uint64_t evictions = 0;
  std::uint64_t mmu_admits = 0;

  LayerCounts& operator+=(const LayerCounts& o);
};

// Observer that counts one switch's event stream, optionally keeps the
// inputs for the replays, and forwards every callback to `inner` (an
// invariant registry in the check pass; null otherwise).
class Recorder final : public verify::InvariantObserver {
 public:
  Recorder(verify::InvariantObserver* inner, bool keep_inputs)
      : inner_(inner), keep_(keep_inputs) {}

  void on_packet_injected(const net::Packet& packet, sim::SimTime now) override;
  void on_packet_delivered(const net::Packet& packet, sim::SimTime now) override;
  void on_packet_dropped(const net::Packet& packet, const char* where, sim::SimTime now) override;
  void on_buffer_store(std::uint32_t buffer_id, const net::Packet& packet, bool new_unit,
                       bool flow_granularity, sim::SimTime now) override;
  void on_buffer_release(std::uint32_t buffer_id, const net::Packet& packet,
                         sim::SimTime now) override;
  void on_buffer_expire(std::uint32_t buffer_id, const net::Packet& packet,
                        sim::SimTime now) override;
  void on_buffer_unit_retired(std::uint32_t buffer_id, sim::SimTime now) override;
  void on_packet_in_sent(std::uint32_t xid, const net::Packet& packet, std::uint32_t buffer_id,
                         sim::SimTime now) override;
  void on_pkt_in_dropped(std::uint32_t xid, std::uint32_t buffer_id, sim::SimTime now) override;
  void on_control_message(bool to_controller, const of::OfMessage& msg,
                          sim::SimTime now) override;
  void on_channel_fault(bool to_controller, const of::OfMessage& msg, of::FaultKind kind,
                        sim::SimTime now) override;
  void on_mmu_admit(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                    std::uint64_t queue_cells_after, std::uint64_t pool_cells_after,
                    sim::SimTime now) override;
  void on_mmu_release(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                      std::uint64_t queue_cells_after, std::uint64_t pool_cells_after,
                      sim::SimTime now) override;

  [[nodiscard]] const LayerCounts& counts() const { return counts_; }

  // Replay inputs, in observation order (kept only when keep_inputs).
  enum class OpKind : std::uint8_t { Ingress, RuleAdd, Store, Release, MmuAdmit, MmuRelease };
  struct Op {
    OpKind kind = OpKind::Ingress;
    sim::SimTime at;
    std::uint32_t index = 0;  // into packets / rules, or the MMU queue handle
    std::uint32_t buffer_id = 0;
    std::uint64_t native = 0;
    std::uint64_t cells = 0;
  };
  [[nodiscard]] const std::vector<Op>& ops() const { return ops_; }
  [[nodiscard]] const std::vector<net::Packet>& packets() const { return packets_; }
  [[nodiscard]] const std::vector<sdnbuf::sw::FlowEntry>& rules() const { return rules_; }
  [[nodiscard]] const std::vector<of::OfMessage>& messages() const { return messages_; }
  [[nodiscard]] const std::vector<sim::SimTime>& event_times() const { return event_times_; }
  // Ingress port per flow, learned from installed rules and packet_ins.
  [[nodiscard]] std::uint16_t in_port_of(const net::FlowKey& key) const;

 private:
  void stamp(sim::SimTime now) {
    if (keep_) event_times_.push_back(now);
  }
  std::uint32_t keep_packet(const net::Packet& packet);

  verify::InvariantObserver* inner_;
  bool keep_;
  LayerCounts counts_;
  std::vector<Op> ops_;
  std::vector<net::Packet> packets_;
  std::vector<sdnbuf::sw::FlowEntry> rules_;
  std::vector<of::OfMessage> messages_;
  std::vector<sim::SimTime> event_times_;
  std::map<std::uint32_t, net::FlowKey> pkt_in_keys_;  // xid -> flow, until the message
  std::map<net::FlowKey, std::uint16_t> in_ports_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct TracedRun {
  std::vector<Metric> metrics;
  // Per-run fingerprints of the traced run, in plan order; the caller
  // compares them with the untraced run's.
  std::vector<std::uint64_t> fingerprints;
  double wall_s = 0.0;
};

// Runs `plan` once with recorders and the profiler attached, replays the
// recorded inputs through the standalone layer objects, and returns every
// per-layer metric. `untraced_wall_s` (the median untraced unit time),
// `obs_overhead_pct` and `testbed_build_ns` are measured by the caller.
[[nodiscard]] TracedRun traced_run(const Plan& plan, double untraced_wall_s,
                                   double obs_overhead_pct, double testbed_build_ns);

}  // namespace perfbench
