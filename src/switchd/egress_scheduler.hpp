// Per-port egress scheduling — the paper's future-work direction (§VII):
// "we can design egress scheduling mechanisms combining with the ingress
// buffer mechanism proposed in this paper to provide QoS guarantee for
// different applications."
//
// The scheduler sits between the switch datapath and a port's egress link.
// Packets are classified into service classes by IP precedence (the top
// three bits of the TOS/DSCP byte) and queued per class with a byte limit
// (tail drop). Three policies:
//
//   Fifo               one queue, arrival order — behaviourally identical to
//                      sending straight to the link (the default, so the
//                      paper's experiments are unaffected)
//   StrictPriority     higher class always dequeues first
//   DeficitRoundRobin  byte-accurate weighted sharing via per-class quanta
//
// Dequeue pacing follows the link's serialization rate, so queueing happens
// here (observable per class) instead of invisibly inside the link.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "obs/instruments.hpp"
#include "sim/simulator.hpp"
#include "switchd/mmu/mmu.hpp"
#include "util/ring.hpp"
#include "util/stats.hpp"

namespace sdnbuf::sw {

enum class SchedulerPolicy { Fifo, StrictPriority, DeficitRoundRobin };

[[nodiscard]] const char* scheduler_policy_name(SchedulerPolicy policy);

struct EgressSchedulerConfig {
  SchedulerPolicy policy = SchedulerPolicy::Fifo;
  // Number of service classes (IP precedence values >= num_classes-1 map to
  // the top class).
  unsigned num_classes = 4;
  // Per-class backlog cap; beyond it packets tail-drop.
  std::uint64_t queue_limit_bytes = 128 * 1024;
  // DeficitRoundRobin quanta (bytes added per round per class); sized to
  // num_classes, defaulting to 1500 each when empty.
  std::vector<std::uint32_t> drr_quanta;
};

class EgressScheduler {
 public:
  using DeliverFn = std::function<void(net::Packet&&)>;

  // `link` is the port's egress link; `deliver` fires at the far end.
  EgressScheduler(sim::Simulator& sim, EgressSchedulerConfig config, net::Link& link,
                  DeliverFn deliver);

  EgressScheduler(const EgressScheduler&) = delete;
  EgressScheduler& operator=(const EgressScheduler&) = delete;

  // Queues a packet for transmission; false (and a drop) if the class queue
  // is full — per the flat per-class byte limit, or, with an MMU attached,
  // per the shared-pool admission policy. The rvalue form takes the packet
  // only when it is admitted: a refused packet stays with the caller.
  bool enqueue(net::Packet&& packet);
  bool enqueue(const net::Packet& packet) { return enqueue(net::Packet(packet)); }

  // Joins the switch's shared-memory MMU (DESIGN.md §16): registers one
  // accounted queue per service class and routes every admission decision
  // through the pool instead of the flat queue_limit_bytes check. Call
  // before traffic starts; null-safe never — attach once or not at all.
  void attach_mmu(mmu::SharedMemoryMmu& mmu, std::uint16_t port_no);

  // This packet's class-queue admission ceiling under the MMU policy
  // (0 without an MMU) — stamped into HopStamp::queue_threshold.
  [[nodiscard]] std::uint64_t mmu_threshold_for(const net::Packet& packet) const;

  // Fires when a dequeued packet is lost at the link (a fault-plane outage);
  // `where` is the drop site label the invariant registry uses
  // ("link-down"). Null = unobserved.
  using DropFn = std::function<void(const net::Packet& packet, const char* where)>;
  void set_drop_handler(DropFn on_drop) { on_drop_ = std::move(on_drop); }

  // Maps a packet to its service class under this configuration.
  [[nodiscard]] unsigned classify(const net::Packet& packet) const;

  struct ClassStats {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t dropped = 0;
    std::uint64_t link_dropped = 0;  // lost at the link after dequeue
    std::uint64_t bytes_sent = 0;
    util::Summary queue_delay_ms;  // enqueue -> start of transmission
  };

  // Metrics instruments (default-null bundle = disabled).
  void set_instruments(const obs::EgressInstruments& instruments) { instr_ = instruments; }

  [[nodiscard]] const ClassStats& class_stats(unsigned service_class) const;
  [[nodiscard]] std::uint64_t backlog_bytes(unsigned service_class) const;
  [[nodiscard]] std::uint64_t total_backlog_packets() const;
  [[nodiscard]] std::uint64_t total_backlog_bytes() const;
  // True high-water marks, updated at every enqueue — unlike the 10ms polled
  // gauge these cannot alias past a transient burst between snapshots.
  [[nodiscard]] std::uint64_t highwater_packets() const { return highwater_packets_; }
  [[nodiscard]] std::uint64_t highwater_bytes() const { return highwater_bytes_; }
  // Re-bases the high-water marks at the current backlog, so marks measured
  // after an experiment's reset_statistics() exclude warm-up bursts. Pure
  // counter writes — cannot perturb the event stream.
  void reset_highwater() {
    highwater_packets_ = total_backlog_packets();
    highwater_bytes_ = total_backlog_bytes();
  }
  [[nodiscard]] const EgressSchedulerConfig& config() const { return config_; }

 private:
  struct Queued {
    net::Packet packet;
    sim::SimTime enqueued_at;
  };
  struct ClassQueue {
    util::Ring<Queued> packets;
    std::uint64_t backlog_bytes = 0;
    std::int64_t deficit = 0;  // DRR credit
    ClassStats stats;
  };

  void maybe_start();
  void transmit(unsigned service_class);
  // Picks the next class to serve, or -1 when everything is empty.
  [[nodiscard]] int select_class();

  sim::Simulator& sim_;
  EgressSchedulerConfig config_;
  net::Link& link_;
  DeliverFn deliver_;
  DropFn on_drop_;
  obs::EgressInstruments instr_;
  // Shared-memory MMU (null = legacy flat per-class byte limit). One
  // registered pool queue per service class, in class order.
  mmu::SharedMemoryMmu* mmu_ = nullptr;
  std::vector<mmu::SharedMemoryMmu::QueueHandle> mmu_queues_;
  // Packets on the wire, in transmission order. Link deliveries are strictly
  // FIFO (each frame's arrival time exceeds the previous frame's), so the
  // delivery callback can pop the front instead of capturing the packet —
  // which keeps the per-hop closure inside EventFn's inline buffer: the
  // steady-state forwarding path performs no heap allocation.
  util::Ring<net::Packet> inflight_;
  std::vector<ClassQueue> queues_;
  unsigned drr_cursor_ = 0;
  // Whether the queue under the cursor already received its quantum during
  // this visit (reset whenever the cursor advances).
  bool drr_topped_up_ = false;
  bool busy_ = false;
  std::uint64_t highwater_packets_ = 0;
  std::uint64_t highwater_bytes_ = 0;
};

}  // namespace sdnbuf::sw
