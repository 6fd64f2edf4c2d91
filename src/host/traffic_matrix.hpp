// Many-host traffic-matrix workloads for fabric experiments.
//
// Where `SyntheticWorkload` models one host pair, this layer spreads Poisson
// flow arrivals over many host pairs according to a communication pattern:
//
//   all-to-all    every flow picks an independent (src, dst) pair uniformly
//                 (dst != src) — the densest matrix, every switch sees misses
//   permutation   a fixed random rotation: host i always talks to host
//                 (i + k) mod n — each host one destination, classic
//                 worst-case for oblivious routing
//   incast        many senders converge on one target host — the paper's
//                 fan-in stress case at fabric scale (flow-granularity
//                 buffering collapses the per-sender packet_in storms)
//
// Flow sizes reuse the bounded-Pareto distribution of `SyntheticWorkload`
// (same inverse-transform draw); packets within a flow are paced at a
// per-flow rate with jitter. Addressing is positional (`topo::Topology`'s
// host_mac/host_ip scheme) but passed in as plain vectors so this layer
// stays independent of the topology engine.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sdnbuf::host {

enum class TrafficPattern { AllToAll, Permutation, Incast };

[[nodiscard]] const char* traffic_pattern_name(TrafficPattern pattern);

struct TrafficMatrixConfig {
  TrafficPattern pattern = TrafficPattern::AllToAll;

  // Host addressing, indexed by host id (typically Topology::host_mac/ip).
  std::vector<net::MacAddress> host_macs;
  std::vector<net::Ipv4Address> host_ips;

  // Incast only: the receiving host and how many distinct senders fan in
  // (0 = every other host).
  unsigned incast_target = 0;
  unsigned incast_fanin = 0;

  // Aggregate Poisson flow arrivals, generated for `duration_s`.
  double duration_s = 1.0;
  double flow_arrival_per_s = 500.0;

  // Bounded Pareto over packets per flow (SyntheticWorkload's distribution).
  double pareto_alpha = 1.3;
  std::uint32_t min_packets = 1;
  std::uint32_t max_packets = 200;

  // Pacing of packets within one flow.
  double in_flow_rate_mbps = 20.0;
  double spacing_jitter = 0.2;

  std::uint32_t frame_size = 1000;
  std::uint16_t dst_port = 9;
  std::uint64_t flow_id_base = 0;
};

class TrafficMatrixWorkload {
 public:
  // Called for every emitted packet with the sending host's index.
  using EmitFn = std::function<void(unsigned src_host, const net::Packet&)>;

  TrafficMatrixWorkload(sim::Simulator& sim, TrafficMatrixConfig config, std::uint64_t rng_seed,
                        EmitFn emit);

  // Schedules the whole arrival process starting at now().
  void start();

  [[nodiscard]] std::uint64_t flows_started() const { return flows_started_; }
  [[nodiscard]] std::uint64_t packets_emitted() const { return packets_emitted_; }
  [[nodiscard]] const util::Samples& flow_sizes() const { return flow_sizes_; }

  // The (src, dst) host pair flow number `flow_index` uses — exposed so
  // tests can assert pattern shape without running the simulator.
  [[nodiscard]] std::pair<unsigned, unsigned> pick_pair(std::uint64_t flow_index);

 private:
  void schedule_next_arrival();
  void start_flow();
  void emit_packet(std::uint64_t flow_index, unsigned src, unsigned dst, std::uint32_t seq,
                   std::uint32_t total);
  [[nodiscard]] unsigned n_hosts() const {
    return static_cast<unsigned>(config_.host_macs.size());
  }

  sim::Simulator& sim_;
  TrafficMatrixConfig config_;
  util::Rng rng_;
  EmitFn emit_;
  sim::SimTime horizon_;
  bool started_ = false;
  unsigned permutation_shift_ = 0;  // drawn once at construction
  std::uint64_t flows_started_ = 0;
  std::uint64_t packets_emitted_ = 0;
  util::Samples flow_sizes_;
};

}  // namespace sdnbuf::host
