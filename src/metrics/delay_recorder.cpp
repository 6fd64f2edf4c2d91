#include "metrics/delay_recorder.hpp"

namespace sdnbuf::metrics {

static_assert(sizeof(DelayRecorder::FlowRecord) == 48, "the recorder keeps one record per flow");

void DelayRecorder::on_first_packet_arrival(std::uint64_t flow_id, sim::SimTime t) {
  if (flow_id == kUntrackedFlow) return;
  auto& r = flow(flow_id);
  if (!FlowRecord::is_set(r.first_arrival)) r.first_arrival = t;
}

void DelayRecorder::on_packet_departure(std::uint64_t flow_id, sim::SimTime t) {
  if (flow_id == kUntrackedFlow) return;
  auto& r = flow(flow_id);
  if (!FlowRecord::is_set(r.first_departure)) r.first_departure = t;
  if (t > r.last_departure) r.last_departure = t;
  ++r.packets_departed;
}

void DelayRecorder::on_packet_in_sent(std::uint64_t flow_id, sim::SimTime t) {
  if (flow_id == kUntrackedFlow) return;
  auto& r = flow(flow_id);
  if (!FlowRecord::is_set(r.pkt_in_sent)) r.pkt_in_sent = t;
}

void DelayRecorder::on_response_arrival(std::uint64_t flow_id, sim::SimTime t) {
  if (flow_id == kUntrackedFlow) return;
  auto& r = flow(flow_id);
  if (!FlowRecord::is_set(r.response_arrival)) r.response_arrival = t;
}

void DelayRecorder::on_packet_delivered(std::uint64_t flow_id, sim::SimTime t) {
  if (flow_id == kUntrackedFlow) return;
  (void)t;
  ++flow(flow_id).packets_delivered;
}

const DelayRecorder::FlowRecord* DelayRecorder::record(std::uint64_t flow_id) const {
  const auto it = flows_.find(flow_id);
  return it == flows_.end() ? nullptr : &it->second;
}

DelayRecorder::Result DelayRecorder::finalize() const {
  Result out;
  out.flows_seen = flows_.size();
  // One sample per complete flow: reserving up front avoids the realloc
  // churn profiled at 20 reps x 1000 flows in the sweep pooling paths.
  out.setup_ms.reserve(flows_.size());
  out.controller_ms.reserve(flows_.size());
  out.switch_ms.reserve(flows_.size());
  out.forwarding_ms.reserve(flows_.size());
  for (const auto& [id, r] : flows_) {
    out.packets_departed += r.packets_departed;
    out.packets_delivered += r.packets_delivered;
    if (!FlowRecord::is_set(r.first_arrival) || !FlowRecord::is_set(r.first_departure)) continue;
    ++out.flows_complete;
    const double setup = (r.first_departure - r.first_arrival).ms();
    out.setup_ms.add(setup);
    // Set whenever first_departure is.
    out.forwarding_ms.add((r.last_departure - r.first_arrival).ms());
    if (FlowRecord::is_set(r.pkt_in_sent) && FlowRecord::is_set(r.response_arrival)) {
      const double controller = (r.response_arrival - r.pkt_in_sent).ms();
      out.controller_ms.add(controller);
      out.switch_ms.add(setup - controller);
    }
  }
  return out;
}

}  // namespace sdnbuf::metrics
