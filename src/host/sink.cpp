#include "host/sink.hpp"

namespace sdnbuf::host {

void HostSink::receive(const net::Packet& packet) {
  ++packets_received_;
  bytes_received_ += packet.frame_size;
  last_arrival_ = sim_->now();
  latency_ms_.add((sim_->now() - packet.created_at).ms());
  if (recorder_ != nullptr) recorder_->on_packet_delivered(packet.flow_id, sim_->now());
  if (packet.flow_id != metrics::kUntrackedFlow) {
    const bool first_copy = mark_seen(packet.flow_id, packet.seq_in_flow);
    if (!first_copy) ++duplicates_;
    if (first_copy && telemetry_tap_) telemetry_tap_(packet, sim_->now());
    if (first_copy && on_receive_) on_receive_(packet);
  }
}

bool HostSink::mark_seen(std::uint64_t flow_id, std::uint32_t seq) {
  FlowSeen& f = seen_[flow_id];
  ++f.copies;
  if (seq < f.next) return false;
  if (seq > f.next) return ahead_.emplace(flow_id, seq).second;
  // The gap at `next` closed: absorb the run of early arrivals behind it.
  ++f.next;
  while (!ahead_.empty()) {
    const auto it = ahead_.find({flow_id, f.next});
    if (it == ahead_.end()) break;
    ahead_.erase(it);
    ++f.next;
  }
  return true;
}

std::uint64_t HostSink::flow_packets(std::uint64_t flow_id) const {
  const FlowSeen* f = seen_.find(flow_id);
  return f == nullptr ? 0 : f->copies;
}

void HostSink::reset() {
  packets_received_ = 0;
  bytes_received_ = 0;
  duplicates_ = 0;
  last_arrival_ = sim::SimTime::zero();
  latency_ms_ = util::Samples{};
  seen_.clear();
  ahead_.clear();
}

}  // namespace sdnbuf::host
