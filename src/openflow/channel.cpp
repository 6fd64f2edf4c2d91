#include "openflow/channel.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace sdnbuf::of {

void MessageCounters::record(MsgType type, std::size_t wire_bytes) {
  const auto slot = static_cast<std::size_t>(type);
  SDNBUF_CHECK(slot < kSlots);
  ++counts_[slot];
  bytes_[slot] += wire_bytes;
}

std::uint64_t MessageCounters::count(MsgType type) const {
  return counts_[static_cast<std::size_t>(type)];
}

std::uint64_t MessageCounters::bytes(MsgType type) const {
  return bytes_[static_cast<std::size_t>(type)];
}

std::uint64_t MessageCounters::total_count() const {
  std::uint64_t n = 0;
  for (auto c : counts_) n += c;
  return n;
}

std::uint64_t MessageCounters::total_bytes() const {
  std::uint64_t n = 0;
  for (auto b : bytes_) n += b;
  return n;
}

void MessageCounters::reset() {
  counts_.fill(0);
  bytes_.fill(0);
}

Channel::Channel(sim::Simulator& sim, net::Link& to_controller, net::Link& to_switch)
    : sim_(sim),
      to_controller_(to_controller),
      to_switch_(to_switch) {}

void Channel::set_fault_profile(FaultProfile profile, std::uint64_t seed) {
  for (std::size_t i = 0; i < profile.outages.size(); ++i) {
    SDNBUF_CHECK_MSG(profile.outages[i].start <= profile.outages[i].end,
                     "outage window ends before it starts");
    if (i > 0) {
      SDNBUF_CHECK_MSG(profile.outages[i - 1].end <= profile.outages[i].start,
                       "outage windows must be sorted and non-overlapping");
    }
  }
  fault_profile_ = std::move(profile);
  fault_rng_.emplace(seed);
  deliver_floor_[0] = deliver_floor_[1] = sim::SimTime::zero();
}

std::vector<std::uint8_t> Channel::acquire_buffer() {
  if (buffer_pool_.empty()) return {};
  std::vector<std::uint8_t> buffer = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  return buffer;
}

void Channel::release_buffer(std::vector<std::uint8_t>&& buffer) {
  static constexpr std::size_t kMaxPooledBuffers = 64;
  if (buffer_pool_.size() >= kMaxPooledBuffers) return;  // let it free
  buffer.clear();
  buffer_pool_.push_back(std::move(buffer));
}

void Channel::transmit(net::Link& link, Handler& handler, std::vector<std::uint8_t> wire,
                       std::size_t wire_bytes, const OfMessage& msg, bool to_controller) {
  const double loss_p =
      to_controller ? fault_profile_.loss_to_controller : fault_profile_.loss_to_switch;
  if (fault_rng_ && loss_p > 0.0 && fault_rng_->next_double() < loss_p) {
    auto& lost =
        to_controller ? fault_counters_.lost_to_controller : fault_counters_.lost_to_switch;
    ++lost;
    if (fault_tap_) fault_tap_(to_controller, msg, FaultKind::Loss, sim_.now());
    // The doomed copy still occupies the link: loss happens in transit, not
    // at the sender.
    release_buffer(std::move(wire));
    link.send(wire_bytes, []() {});
    return;
  }
  const bool jittered = fault_rng_ && fault_profile_.max_extra_delay > sim::SimTime::zero();
  sim::SimTime extra;
  if (jittered) {
    extra = sim::SimTime::nanoseconds(static_cast<std::int64_t>(fault_rng_->next_below(
        static_cast<std::uint64_t>(fault_profile_.max_extra_delay.ns()) + 1)));
  }
  link.send(wire_bytes,
            [this, &handler, wire = std::move(wire), wire_bytes, extra, jittered,
             to_controller]() mutable {
    auto decoded = decode_message(wire);
    SDNBUF_CHECK_MSG(decoded.has_value(), "control channel delivered an undecodable message");
    release_buffer(std::move(wire));
    if (!jittered) {
      if (handler) handler(*decoded, wire_bytes);
      return;
    }
    // Jitter must not reorder a direction's messages (TCP delivers in
    // order): never deliver before an earlier message's delivery time.
    sim::SimTime when = sim_.now() + extra;
    sim::SimTime& floor = deliver_floor_[to_controller ? 1 : 0];
    if (when < floor) when = floor;
    floor = when;
    if (when <= sim_.now()) {
      if (handler) handler(*decoded, wire_bytes);
    } else {
      sim_.schedule(when - sim_.now(),
                    [&handler, delivered = std::move(*decoded), wire_bytes]() mutable {
        sim::ScopedProfileTag tag{"channel"};
        if (handler) handler(delivered, wire_bytes);
      });
    }
  });
}

std::size_t Channel::send(net::Link& link, MessageCounters& counters, Handler& handler,
                          const OfMessage& msg, bool to_controller) {
  // Encode through the real codec; the decoded copy is delivered to the
  // receiver, so any asymmetry between encode and decode would surface
  // immediately in every simulation. The wire bytes live in a pooled
  // scratch buffer that returns to the pool after decode.
  auto wire = acquire_buffer();
  encode_message_into(msg, wire);
  const std::size_t wire_bytes = wire.size() + kTransportOverhead;
  if (fault_profile_.in_outage(sim_.now())) {
    // Connection down: the message never reaches the wire, so it appears in
    // no counter or capture — exactly what tcpdump would (not) see.
    auto& dropped = to_controller ? fault_counters_.outage_dropped_to_controller
                                  : fault_counters_.outage_dropped_to_switch;
    ++dropped;
    if (fault_tap_) fault_tap_(to_controller, msg, FaultKind::Outage, sim_.now());
    release_buffer(std::move(wire));
    return wire_bytes;
  }
  const double dup_p =
      to_controller ? fault_profile_.duplicate_to_controller : fault_profile_.duplicate_to_switch;
  const bool duplicate = fault_rng_ && dup_p > 0.0 && fault_rng_->next_double() < dup_p;
  counters.record(message_type(msg), wire_bytes);
  if (obs::Histogram* h =
          to_controller ? instr_.wire_bytes_to_controller : instr_.wire_bytes_to_switch;
      h != nullptr) {
    h->record(static_cast<double>(wire_bytes));
  }
  if (tap_) tap_(to_controller, msg, wire_bytes, sim_.now());
  if (verify_tap_) verify_tap_(to_controller, msg, wire_bytes, sim_.now());
  std::vector<std::uint8_t> copy;
  if (duplicate) {
    copy = acquire_buffer();
    copy.assign(wire.begin(), wire.end());
  }
  transmit(link, handler, std::move(wire), wire_bytes, msg, to_controller);
  if (duplicate) {
    auto& duped = to_controller ? fault_counters_.duplicated_to_controller
                                : fault_counters_.duplicated_to_switch;
    ++duped;
    // Fault tap first, then the duplicate's capture/verify records, so an
    // observer widens its accounting before seeing the second crossing.
    if (fault_tap_) fault_tap_(to_controller, msg, FaultKind::Duplicate, sim_.now());
    counters.record(message_type(msg), wire_bytes);
    if (tap_) tap_(to_controller, msg, wire_bytes, sim_.now());
    if (verify_tap_) verify_tap_(to_controller, msg, wire_bytes, sim_.now());
    transmit(link, handler, std::move(copy), wire_bytes, msg, to_controller);
  }
  return wire_bytes;
}

std::size_t Channel::send_from_switch(OfMessage msg) {
  SDNBUF_TRACE("channel", "switch -> controller: " << msg_type_name(message_type(msg)));
  return send(to_controller_, to_controller_counters_, controller_handler_, msg,
              /*to_controller=*/true);
}

std::size_t Channel::send_from_controller(OfMessage msg) {
  SDNBUF_TRACE("channel", "controller -> switch: " << msg_type_name(message_type(msg)));
  return send(to_switch_, to_switch_counters_, switch_handler_, msg,
              /*to_controller=*/false);
}

}  // namespace sdnbuf::of
