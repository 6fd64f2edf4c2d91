// Many-switch fabric testbed: N switches wired per a `topo::Topology`, one
// controller managing all of them over per-switch control channels.
//
//   hosts -- [edge/leaf/...] -- fabric links --            (data plane)
//                \    |    /
//                 controller (one channel per switch)      (control plane)
//
// Every platform in the repo is one of these. The paper's Fig. 1 rig
// (Host1 -- OVS -- Host2, 100 Mbps host links, a 1 Gbps / 300 us control
// link to Floodlight) is `chain_fabric(1)`; longer chains extend it hop by
// hop. Arbitrary validated fabrics take their per-switch port maps straight
// from the topology and their forwarding decisions from the seeded ECMP
// `topo::Router`, and the controller can answer misses per hop (the paper's
// reactive model multiplied across the path) or pre-install the whole path
// on the first packet_in of a flow.
//
// Per-switch observability: every switch, channel and the controller accept
// their own `verify::InvariantObserver`, so fabric runs can keep one
// invariant registry per switch (xids and buffer_ids are per-switch
// namespaces and would collide in a shared registry). Packets crossing a
// switch-to-switch link count as delivered by the sender's registry and
// injected into the receiver's, which keeps each registry's conservation
// closed locally.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "controller/controller.hpp"
#include "host/sink.hpp"
#include "metrics/delay_recorder.hpp"
#include "net/link.hpp"
#include "obs/fabric_observatory.hpp"
#include "obs/metrics.hpp"
#include "openflow/channel.hpp"
#include "sim/simulator.hpp"
#include "switchd/switch.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"
#include "util/ring.hpp"
#include "util/stats.hpp"
#include "verify/invariants.hpp"

namespace sdnbuf::core {

// The forwarding application driving the fabric's controller.
enum class FabricRouting {
  // Classic MAC learning with flooding — only safe on loop-free topologies
  // (chains, the paper's one-switch rig included).
  L2Learning,
  // topo::Router consulted per packet_in; every switch on the path misses
  // once per flow (reactive per-hop setup).
  TopologyPerHop,
  // topo::Router walked once per flow; downstream rules pre-installed before
  // the first packet is released (controller full-path installation).
  TopologyFullPath,
};

[[nodiscard]] const char* fabric_routing_name(FabricRouting routing);

// One data-plane link with a fault schedule: the duplex link at
// `link_index` (index into topology.links()) drops in-flight frames during
// the schedule's outage windows, and both endpoint switches flip the
// matching port down/up at the window boundaries (host endpoints have no
// switch-side port to flip and are skipped).
struct LinkFaultSpec {
  std::size_t link_index = 0;
  net::LinkFaultSchedule schedule;
};

// One switch crash window: at `crash_at` the switch loses its flow table,
// buffers and control-channel state; at `restart_at` it comes back empty and
// re-handshakes with the controller over PR 2's hello machinery.
struct SwitchCrashSpec {
  unsigned switch_index = 0;
  sim::SimTime crash_at;
  sim::SimTime restart_at;
};

struct FabricConfig {
  topo::Topology topology;  // must pass validate()
  FabricRouting routing = FabricRouting::TopologyPerHop;
  sw::SwitchConfig switch_config;  // template; name/datapath_id set per switch
  ctrl::ControllerConfig controller_config;
  double host_link_mbps = 100.0;
  double inter_switch_mbps = 100.0;
  sim::SimTime link_delay = sim::SimTime::microseconds(20);
  double control_link_mbps = 1000.0;
  sim::SimTime control_link_delay = sim::SimTime::microseconds(300);
  std::uint64_t seed = 1;
  // Per-switch invariant observers: empty (no checking) or exactly one entry
  // per switch, indexed by switch index. Owned by the caller.
  std::vector<verify::InvariantObserver*> observers;
  // Data-plane fault plane — both empty by default, and a fault-free
  // configuration is byte-identical to one built before the fault plane
  // existed (schedules attach after construction, arming no events).
  std::vector<LinkFaultSpec> link_faults;
  std::vector<SwitchCrashSpec> switch_crashes;
  // In-fabric telemetry plane (DESIGN.md §15): drop-attribution ledger + INT
  // harvest. Owned by the caller; null = off. Per-switch INT and sampling
  // knobs live in switch_config.
  obs::FabricObservatory* observatory = nullptr;
  // Control-channel fault injection, armed on every channel when the
  // measurement window opens (the first reset_statistics(), which warm_up()
  // calls), so handshake and learning always run over clean channels.
  // Outage windows are relative to that instant. Channel i draws from its
  // own stream, seeded seed * 0x9e3779b97f4a7c15 + 0xfa017 + i.
  of::FaultProfile fault_profile;
};

// A loop-free chain of `n_switches` between two hosts under L2 learning;
// port 1 of every switch faces Host1, port 2 faces Host2. chain_fabric(1) is
// the paper's Fig. 1 rig.
[[nodiscard]] FabricConfig chain_fabric(unsigned n_switches);

class FabricTestbed {
 public:
  explicit FabricTestbed(const FabricConfig& config);

  FabricTestbed(const FabricTestbed&) = delete;
  FabricTestbed& operator=(const FabricTestbed&) = delete;

  // Sends `packet` from host `host_index` up its access link into the fabric.
  void inject_from_host(unsigned host_index, const net::Packet& packet);

  // The two-host conversation of an L2 chain: host 0 is Host1, host 1 is
  // Host2. MACs are topo::Topology::host_mac; the IPs are the paper rig's
  // (the sampling hash and the workload's source-IP sweep read them).
  [[nodiscard]] static net::MacAddress host1_mac() { return topo::Topology::host_mac(0); }
  [[nodiscard]] static net::MacAddress host2_mac() { return topo::Topology::host_mac(1); }
  [[nodiscard]] static net::Ipv4Address host1_ip() {
    return net::Ipv4Address::from_octets(10, 1, 0, 1);
  }
  [[nodiscard]] static net::Ipv4Address host2_ip() {
    return net::Ipv4Address::from_octets(10, 2, 0, 1);
  }

  // L2 learning warm-up (ARP-style startup chatter, with retries so it also
  // succeeds under controller fault injection): Host2 speaks until every
  // switch has learned it, then Host1; then drains and opens the
  // measurement window. Requires L2 learning and exactly two hosts.
  void warm_up();

  // The fabric's one event queue.
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] const topo::Router& router() const { return *router_; }
  [[nodiscard]] FabricRouting routing() const { return routing_; }

  // Frames lost to link outages, summed over both halves of every data link.
  [[nodiscard]] std::uint64_t total_link_fault_drops() const;
  // When the last armed fault (outage window or restart) clears; zero when
  // the configuration is fault-free. Recovery measurements start here.
  [[nodiscard]] sim::SimTime last_fault_clear() const { return last_fault_clear_; }

  [[nodiscard]] unsigned n_switches() const { return static_cast<unsigned>(switches_.size()); }
  [[nodiscard]] unsigned n_hosts() const { return static_cast<unsigned>(sinks_.size()); }
  [[nodiscard]] sw::Switch& switch_at(unsigned index) { return *switches_.at(index); }
  [[nodiscard]] of::Channel& channel_at(unsigned index) { return *channels_.at(index); }
  [[nodiscard]] net::DuplexLink& data_link_at(std::size_t index) { return *data_links_.at(index); }
  // Switch `index`'s control link: forward() carries switch -> controller.
  [[nodiscard]] net::DuplexLink& control_link_at(unsigned index) {
    return *control_links_.at(index);
  }
  [[nodiscard]] ctrl::Controller& controller() { return *controller_; }
  [[nodiscard]] host::HostSink& sink_at(unsigned host_index) { return *sinks_.at(host_index); }

  // Sums across every switch / control channel.
  [[nodiscard]] std::uint64_t total_pkt_ins() const;
  [[nodiscard]] std::uint64_t total_control_bytes() const;
  [[nodiscard]] std::uint64_t total_control_msgs() const;
  [[nodiscard]] std::uint64_t total_delivered() const;
  [[nodiscard]] std::uint64_t total_duplicates() const;
  // Buffer occupancy summed over switches: time-weighted mean at `now` and
  // the sum of per-switch maxima.
  [[nodiscard]] double buffer_occupancy_mean_sum() const;
  [[nodiscard]] std::uint64_t buffer_occupancy_max_sum() const;
  // Shared-memory MMU accounting summed over switches (zero with MMU off):
  // admissions refused by the sharing policy, and per-switch peak pool
  // occupancies (cells).
  [[nodiscard]] std::uint64_t total_mmu_rejected() const;
  [[nodiscard]] std::uint64_t mmu_peak_pool_cells_sum() const;

  // Sorted multiset of (flow_id, seq_in_flow) payloads delivered to hosts
  // (untracked warm-up flows excluded) — the cross-mode equality check's
  // input.
  [[nodiscard]] std::vector<verify::PayloadId> delivered_payloads() const;
  // Injection-to-delivery latency of each flow's first packet (ms): the
  // fabric-scale flow setup delay measure.
  [[nodiscard]] const util::Samples& first_packet_ms() const { return first_packet_ms_; }

  [[nodiscard]] sim::SimTime measurement_start() const { return measurement_start_; }

  // Attaches per-switch instrument bundles plus fabric-wide poll gauges to
  // `registry`. Histograms aggregate across switches; per-switch gauges are
  // prefixed with the switch name.
  void install_metrics(obs::MetricsRegistry& registry);
  // The part of install_metrics every run shares: the five component
  // histograms (switch/controller packet_in bytes, buffer residency, channel
  // wire bytes each way), each one aggregated across switches.
  void install_component_histograms(obs::MetricsRegistry& registry);

  // Attaches a setup-delay recorder to every switch and host sink. The
  // decomposition is per switch, so it is meaningful on one-switch fabrics.
  void set_delay_recorder(metrics::DelayRecorder* recorder);

  // Stops all housekeeping so Simulator::run() can drain.
  void stop();

  // Resets taps, CPU meters, counters and occupancy statistics and marks the
  // start of the measurement window. The first call arms the fault profile.
  void reset_statistics();

 private:
  void wire_observers(const FabricConfig& config);
  void wire_ports();
  void arm_link_faults(const std::vector<LinkFaultSpec>& faults);
  void arm_switch_crashes(const std::vector<SwitchCrashSpec>& crashes);
  void arm_channel_faults();

  sim::Simulator sim_;
  topo::Topology topo_;
  FabricRouting routing_;
  std::vector<std::unique_ptr<host::HostSink>> sinks_;
  // Frames on each host's access uplink, in wire (= delivery) order. The
  // delivery event pops its frame here instead of carrying it, so the event
  // fits EventFn's inline buffer and injection allocates nothing.
  std::vector<util::Ring<net::Packet>> uplink_inflight_;
  std::unique_ptr<ctrl::Controller> controller_;
  std::unique_ptr<topo::Router> router_;
  std::vector<std::unique_ptr<net::DuplexLink>> data_links_;     // topology link order
  std::vector<std::unique_ptr<sw::Switch>> switches_;            // switch index order
  std::vector<std::unique_ptr<net::DuplexLink>> control_links_;  // per switch
  std::vector<std::unique_ptr<of::Channel>> channels_;           // per switch
  // Observation: chain_[i] is the one observer every wiring point for switch
  // i talks to (null when neither an invariant observer nor the observatory
  // is attached); fates_ and tees_ own what wire_observers built for it.
  obs::FabricObservatory* observatory_ = nullptr;
  std::vector<std::unique_ptr<obs::FateObserver>> fates_;
  std::vector<std::unique_ptr<verify::TeeObserver>> tees_;
  std::vector<verify::InvariantObserver*> chain_;
  // Fault schedules live here because the links hold raw pointers into them.
  std::vector<std::unique_ptr<net::LinkFaultSchedule>> fault_schedules_;
  sim::SimTime last_fault_clear_;
  of::FaultProfile pending_faults_;  // armed, then cleared, by the first window
  std::uint64_t seed_;
  // Host deliveries of tracked flows since the measurement window opened.
  std::vector<verify::PayloadId> delivered_;
  util::Samples first_packet_ms_;
  sim::SimTime measurement_start_;
};

}  // namespace sdnbuf::core
