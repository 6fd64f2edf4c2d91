#include "net/link.hpp"

#include <utility>

#include "util/check.hpp"

namespace sdnbuf::net {

double ByteTap::load_mbps(sim::SimTime start, sim::SimTime end) const {
  SDNBUF_CHECK(end > start);
  return static_cast<double>(bytes_) * 8.0 / (end - start).sec() / 1e6;
}

Link::Link(sim::Simulator& sim, std::string name, double bandwidth_bps,
           sim::SimTime propagation_delay)
    : sim_(sim),
      name_(std::move(name)),
      bandwidth_bps_(bandwidth_bps),
      propagation_delay_(propagation_delay) {
  SDNBUF_CHECK_MSG(bandwidth_bps_ > 0, "link bandwidth must be positive");
}

bool Link::admit(std::uint64_t bytes, sim::SimTime& arrival) {
  SDNBUF_CHECK_MSG(bytes > 0, "cannot send an empty frame");
  const sim::SimTime start =
      transmitter_free_at_ > sim_.now() ? transmitter_free_at_ : sim_.now();
  const sim::SimTime done_sending = start + sim::transmission_time(bytes, bandwidth_bps_);
  arrival = done_sending + propagation_delay_;
  // Fault-plane loss is decided at send time over the whole flight interval:
  // a frame that would be on the wire during any outage window is dropped,
  // covering in-flight loss without cancelling events. The frame never
  // occupies the transmitter, so the serialization clock is unaffected.
  if (faults_ != nullptr && faults_->down_during(start, arrival)) {
    ++fault_drops_;
    return false;
  }
  tap_.record(bytes);
  transmitter_free_at_ = done_sending;
  return true;
}

void Link::schedule_tagged(sim::SimTime arrival, sim::EventFn on_delivered) {
  // Wrapping the callback in a profile tag costs a heap allocation (an
  // EventFn nested inside an EventFn overflows the small buffer), so the
  // per-link attribution wrapper only exists when the simulator actually
  // has a profile sink. The tag reads name_ at delivery time; the link
  // outlives every in-flight frame and the name is immutable after setup.
  sim_.schedule_at(arrival, [this, on_delivered = std::move(on_delivered)]() mutable {
    sim::ScopedProfileTag tag{name_.c_str()};
    on_delivered();
  });
}

}  // namespace sdnbuf::net
