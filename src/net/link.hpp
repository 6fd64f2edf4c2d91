// Point-to-point unidirectional link with FIFO serialization.
//
// A link has a bandwidth and a propagation delay. Transmissions serialize:
// a frame starts when the transmitter becomes free, takes bytes*8/bandwidth
// to clock out, then arrives after the propagation delay. Queueing happens
// before the link (the egress scheduler's per-class queues), so the link
// itself never drops for lack of room; only its fault schedule loses frames.
//
// `ByteTap` is the tcpdump stand-in: it observes every transmission on a
// link and accumulates bytes/frames so experiments can report link load in
// Mbps per direction, exactly as the paper measures control-path load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/link_fault.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace sdnbuf::net {

class ByteTap {
 public:
  void record(std::uint64_t bytes) {
    bytes_ += bytes;
    ++frames_;
  }

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }

  // Average load over [start, end] in Mbps.
  [[nodiscard]] double load_mbps(sim::SimTime start, sim::SimTime end) const;

  void reset() {
    bytes_ = 0;
    frames_ = 0;
  }

 private:
  std::uint64_t bytes_ = 0;
  std::uint64_t frames_ = 0;
};

class Link {
 public:
  Link(sim::Simulator& sim, std::string name, double bandwidth_bps,
       sim::SimTime propagation_delay);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  enum class SendResult : std::uint8_t {
    Sent,       // frame scheduled for delivery
    FaultDrop,  // link down for part of the frame's flight interval
  };

  // Queues `bytes` for transmission; `on_delivered` fires at the receiver
  // once the last bit has propagated. Returns false (and counts a fault
  // drop) if the link's fault schedule has it down during the frame's
  // flight. The callable is forwarded to Simulator::schedule_at, which
  // builds it once, in its event slot. nullptr or an empty EventFn still
  // schedules a (no-op) delivery event, so the event sequence is the same.
  template <class F>
  bool send(std::uint64_t bytes, F&& on_delivered) {
    return send_frame(bytes, std::forward<F>(on_delivered)) == SendResult::Sent;
  }

  // As send(), returning the outcome as a SendResult.
  template <class F>
  SendResult send_frame(std::uint64_t bytes, F&& on_delivered) {
    if constexpr (std::is_same_v<std::decay_t<F>, sim::EventFn>) {
      if (!on_delivered) return send_frame(bytes, nullptr);
    }
    sim::SimTime arrival;
    if (!admit(bytes, arrival)) return SendResult::FaultDrop;
    if (sim_.profile_sink() != nullptr) {
      schedule_tagged(arrival, sim::EventFn{std::forward<F>(on_delivered)});
    } else {
      sim_.schedule_at(arrival, std::forward<F>(on_delivered));
    }
    return SendResult::Sent;
  }
  SendResult send_frame(std::uint64_t bytes, std::nullptr_t) { return send_frame(bytes, [] {}); }

  // Attaches a fault schedule (owned by the caller, may be null). The
  // zero-schedule path is byte-identical to a link without one.
  void set_fault_schedule(const LinkFaultSchedule* faults) { faults_ = faults; }
  [[nodiscard]] const LinkFaultSchedule* fault_schedule() const { return faults_; }

  // Is the link up at instant `t` under its fault schedule?
  [[nodiscard]] bool up_at(sim::SimTime t) const {
    return faults_ == nullptr || !faults_->down_at(t);
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double bandwidth_bps() const { return bandwidth_bps_; }
  [[nodiscard]] sim::SimTime propagation_delay() const { return propagation_delay_; }
  [[nodiscard]] std::uint64_t fault_drops() const { return fault_drops_; }

  [[nodiscard]] ByteTap& tap() { return tap_; }
  [[nodiscard]] const ByteTap& tap() const { return tap_; }

 private:
  // The non-template part of a send: fault check, tap and transmitter
  // clock. Returns false for a fault drop, else sets the arrival time.
  bool admit(std::uint64_t bytes, sim::SimTime& arrival);
  void schedule_tagged(sim::SimTime arrival, sim::EventFn on_delivered);

  sim::Simulator& sim_;
  std::string name_;
  double bandwidth_bps_;
  sim::SimTime propagation_delay_;
  sim::SimTime transmitter_free_at_;
  std::uint64_t fault_drops_ = 0;
  const LinkFaultSchedule* faults_ = nullptr;
  ByteTap tap_;
};

// A duplex link: two independent unidirectional channels sharing a name.
class DuplexLink {
 public:
  DuplexLink(sim::Simulator& sim, const std::string& name, double bandwidth_bps,
             sim::SimTime propagation_delay)
      : forward_(sim, name + ":fwd", bandwidth_bps, propagation_delay),
        reverse_(sim, name + ":rev", bandwidth_bps, propagation_delay) {}

  [[nodiscard]] Link& forward() { return forward_; }
  [[nodiscard]] Link& reverse() { return reverse_; }

  // Both directions fail together: a physical link outage takes down the
  // whole duplex pair.
  void set_fault_schedule(const LinkFaultSchedule* faults) {
    forward_.set_fault_schedule(faults);
    reverse_.set_fault_schedule(faults);
  }

 private:
  Link forward_;
  Link reverse_;
};

}  // namespace sdnbuf::net
