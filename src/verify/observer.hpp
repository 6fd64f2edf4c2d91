// Invariant observation points.
//
// `InvariantObserver` is the hook interface the datapath components call at
// every semantically meaningful transition: packet injection/delivery/drop,
// buffer unit lifecycle (store / release / expire / retire), packet_in
// emission, controller-side fault drops, every control-channel send, channel
// faults and shared-memory MMU charges. Components hold a nullable observer
// pointer and pay nothing when it is unset, so production runs are
// unaffected. Every hook defaults to a no-op, so an observer overrides only
// the hooks it consumes: `verify::InvariantRegistry` turns the whole stream
// into mechanical invariant checks, `obs::FlowTracer` into trace spans,
// `obs::FateObserver` into the observatory's drop ledger.
//
// `TeeObserver` fans one stream out to two observers; `join` wires two
// nullable observers behind one pointer, teeing only when both are present.
//
// The interface lives below switchd/controller/core in the dependency order
// (it only speaks net/openflow/sim vocabulary), which is what lets every
// layer report into one registry.
#pragma once

#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "openflow/messages.hpp"
#include "sim/time.hpp"

namespace sdnbuf::verify {

class InvariantObserver {
 public:
  virtual ~InvariantObserver() = default;

  // --- payload path (testbed injection points and host sinks) ---
  virtual void on_packet_injected(const net::Packet& /*packet*/, sim::SimTime /*now*/) {}
  virtual void on_packet_delivered(const net::Packet& /*packet*/, sim::SimTime /*now*/) {}
  // `where` names the drop site ("no-actions", "unknown-port", "egress-queue", ...).
  virtual void on_packet_dropped(const net::Packet& /*packet*/, const char* /*where*/,
                                 sim::SimTime /*now*/) {}

  // --- buffer unit lifecycle (PacketBufferManager / FlowBufferManager) ---
  // `new_unit` is true when the store allocated a fresh buffer_id slot;
  // `flow_granularity` distinguishes shared per-flow slots from per-packet
  // slots (they obey different stability rules).
  virtual void on_buffer_store(std::uint32_t /*buffer_id*/, const net::Packet& /*packet*/,
                               bool /*new_unit*/, bool /*flow_granularity*/,
                               sim::SimTime /*now*/) {}
  virtual void on_buffer_release(std::uint32_t /*buffer_id*/, const net::Packet& /*packet*/,
                                 sim::SimTime /*now*/) {}
  virtual void on_buffer_expire(std::uint32_t /*buffer_id*/, const net::Packet& /*packet*/,
                                sim::SimTime /*now*/) {}
  // The buffer_id slot stops being live (after a release_all / release /
  // expiry); reclaim-delay accounting is not the observer's concern.
  virtual void on_buffer_unit_retired(std::uint32_t /*buffer_id*/, sim::SimTime /*now*/) {}

  // --- control path ---
  // The switch emitted a packet_in for `packet` (metadata intact) under
  // `xid`; buffer_id is kNoBuffer for full-frame punts.
  virtual void on_packet_in_sent(std::uint32_t /*xid*/, const net::Packet& /*packet*/,
                                 std::uint32_t /*buffer_id*/, sim::SimTime /*now*/) {}
  // Controller-side fault injection silently discarded the packet_in.
  virtual void on_pkt_in_dropped(std::uint32_t /*xid*/, std::uint32_t /*buffer_id*/,
                                 sim::SimTime /*now*/) {}
  // Every message crossing the channel, at send time (wired via the
  // channel's verify tap).
  virtual void on_control_message(bool /*to_controller*/, const of::OfMessage& /*msg*/,
                                  sim::SimTime /*now*/) {}
  // A channel fault hit `msg`: lost in transit, never sent (outage), or
  // delivered twice (duplicate). Fires via the channel's fault tap; for
  // duplicates it fires before the duplicate's on_control_message.
  virtual void on_channel_fault(bool /*to_controller*/, const of::OfMessage& /*msg*/,
                                of::FaultKind /*kind*/, sim::SimTime /*now*/) {}

  // --- shared-memory MMU (DESIGN.md §16) ---
  // The MMU admitted / released a charge against queue `queue` (a per-switch
  // handle): `native` legacy units and `cells` pool cells, with the queue's
  // and pool's post-transition cell occupancies. A release may carry only
  // one currency (cells when the packet leaves, the native unit at deferred
  // reclaim).
  virtual void on_mmu_admit(std::uint32_t /*queue*/, std::uint64_t /*native*/,
                            std::uint64_t /*cells*/, std::uint64_t /*queue_cells_after*/,
                            std::uint64_t /*pool_cells_after*/, sim::SimTime /*now*/) {}
  virtual void on_mmu_release(std::uint32_t /*queue*/, std::uint64_t /*native*/,
                              std::uint64_t /*cells*/, std::uint64_t /*queue_cells_after*/,
                              std::uint64_t /*pool_cells_after*/, sim::SimTime /*now*/) {}
};

// Forwards every hook to `a`, then to `b`. A tee must override every hook:
// with no-op defaults, a missed one would silently starve both sides.
class TeeObserver final : public InvariantObserver {
 public:
  TeeObserver(InvariantObserver& a, InvariantObserver& b) : a_(a), b_(b) {}

  void on_packet_injected(const net::Packet& packet, sim::SimTime now) override {
    a_.on_packet_injected(packet, now);
    b_.on_packet_injected(packet, now);
  }
  void on_packet_delivered(const net::Packet& packet, sim::SimTime now) override {
    a_.on_packet_delivered(packet, now);
    b_.on_packet_delivered(packet, now);
  }
  void on_packet_dropped(const net::Packet& packet, const char* where, sim::SimTime now) override {
    a_.on_packet_dropped(packet, where, now);
    b_.on_packet_dropped(packet, where, now);
  }
  void on_buffer_store(std::uint32_t buffer_id, const net::Packet& packet, bool new_unit,
                       bool flow_granularity, sim::SimTime now) override {
    a_.on_buffer_store(buffer_id, packet, new_unit, flow_granularity, now);
    b_.on_buffer_store(buffer_id, packet, new_unit, flow_granularity, now);
  }
  void on_buffer_release(std::uint32_t buffer_id, const net::Packet& packet,
                         sim::SimTime now) override {
    a_.on_buffer_release(buffer_id, packet, now);
    b_.on_buffer_release(buffer_id, packet, now);
  }
  void on_buffer_expire(std::uint32_t buffer_id, const net::Packet& packet,
                        sim::SimTime now) override {
    a_.on_buffer_expire(buffer_id, packet, now);
    b_.on_buffer_expire(buffer_id, packet, now);
  }
  void on_buffer_unit_retired(std::uint32_t buffer_id, sim::SimTime now) override {
    a_.on_buffer_unit_retired(buffer_id, now);
    b_.on_buffer_unit_retired(buffer_id, now);
  }
  void on_packet_in_sent(std::uint32_t xid, const net::Packet& packet, std::uint32_t buffer_id,
                         sim::SimTime now) override {
    a_.on_packet_in_sent(xid, packet, buffer_id, now);
    b_.on_packet_in_sent(xid, packet, buffer_id, now);
  }
  void on_pkt_in_dropped(std::uint32_t xid, std::uint32_t buffer_id, sim::SimTime now) override {
    a_.on_pkt_in_dropped(xid, buffer_id, now);
    b_.on_pkt_in_dropped(xid, buffer_id, now);
  }
  void on_control_message(bool to_controller, const of::OfMessage& msg,
                          sim::SimTime now) override {
    a_.on_control_message(to_controller, msg, now);
    b_.on_control_message(to_controller, msg, now);
  }
  void on_channel_fault(bool to_controller, const of::OfMessage& msg, of::FaultKind kind,
                        sim::SimTime now) override {
    a_.on_channel_fault(to_controller, msg, kind, now);
    b_.on_channel_fault(to_controller, msg, kind, now);
  }
  void on_mmu_admit(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                    std::uint64_t queue_cells_after, std::uint64_t pool_cells_after,
                    sim::SimTime now) override {
    a_.on_mmu_admit(queue, native, cells, queue_cells_after, pool_cells_after, now);
    b_.on_mmu_admit(queue, native, cells, queue_cells_after, pool_cells_after, now);
  }
  void on_mmu_release(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                      std::uint64_t queue_cells_after, std::uint64_t pool_cells_after,
                      sim::SimTime now) override {
    a_.on_mmu_release(queue, native, cells, queue_cells_after, pool_cells_after, now);
    b_.on_mmu_release(queue, native, cells, queue_cells_after, pool_cells_after, now);
  }

 private:
  InvariantObserver& a_;
  InvariantObserver& b_;
};

// The one observer that feeds both `a` and `b`: null when both are null, the
// lone one when only one is set (wired directly, no extra virtual hop),
// otherwise a tee over both, owned by `tee`.
[[nodiscard]] inline InvariantObserver* join(InvariantObserver* a, InvariantObserver* b,
                                             std::unique_ptr<TeeObserver>& tee) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  tee = std::make_unique<TeeObserver>(*a, *b);
  return tee.get();
}

}  // namespace sdnbuf::verify
