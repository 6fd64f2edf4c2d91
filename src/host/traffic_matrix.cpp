#include "host/traffic_matrix.hpp"

#include "host/synthetic_workload.hpp"
#include "util/check.hpp"

namespace sdnbuf::host {

const char* traffic_pattern_name(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::AllToAll: return "all-to-all";
    case TrafficPattern::Permutation: return "permutation";
    case TrafficPattern::Incast: return "incast";
  }
  return "unknown";
}

TrafficMatrixWorkload::TrafficMatrixWorkload(sim::Simulator& sim, TrafficMatrixConfig config,
                                             std::uint64_t rng_seed, EmitFn emit)
    : sim_(sim), config_(std::move(config)), rng_(rng_seed), emit_(std::move(emit)) {
  SDNBUF_CHECK_MSG(config_.host_macs.size() == config_.host_ips.size(),
                   "host MAC/IP vectors must align");
  SDNBUF_CHECK_MSG(n_hosts() >= 2, "a traffic matrix needs at least two hosts");
  SDNBUF_CHECK_MSG(config_.duration_s > 0, "duration must be positive");
  SDNBUF_CHECK_MSG(config_.flow_arrival_per_s > 0, "arrival rate must be positive");
  SDNBUF_CHECK_MSG(config_.pareto_alpha > 0, "Pareto shape must be positive");
  SDNBUF_CHECK_MSG(config_.min_packets >= 1 && config_.max_packets >= config_.min_packets,
                   "flow size bounds inverted");
  SDNBUF_CHECK_MSG(config_.incast_target < n_hosts(), "incast target out of range");
  SDNBUF_CHECK_MSG(config_.incast_fanin < n_hosts(), "incast fan-in needs a non-sender");
  SDNBUF_CHECK_MSG(emit_ != nullptr, "emit function required");
  // One draw fixes the permutation for the run; drawn unconditionally so the
  // downstream stream is pattern-independent for a given seed.
  permutation_shift_ = 1 + static_cast<unsigned>(rng_.next_below(n_hosts() - 1));
}

std::pair<unsigned, unsigned> TrafficMatrixWorkload::pick_pair(std::uint64_t flow_index) {
  const unsigned n = n_hosts();
  switch (config_.pattern) {
    case TrafficPattern::AllToAll: {
      const unsigned src = static_cast<unsigned>(rng_.next_below(n));
      // Uniform over the n-1 other hosts via skip-adjustment.
      unsigned dst = static_cast<unsigned>(rng_.next_below(n - 1));
      if (dst >= src) ++dst;
      return {src, dst};
    }
    case TrafficPattern::Permutation: {
      const unsigned src = static_cast<unsigned>(flow_index % n);
      return {src, (src + permutation_shift_) % n};
    }
    case TrafficPattern::Incast: {
      const unsigned target = config_.incast_target;
      const unsigned fanin =
          config_.incast_fanin == 0 ? n - 1 : config_.incast_fanin;
      // Senders are the `fanin` hosts after the target, cyclically.
      const unsigned pick = static_cast<unsigned>(rng_.next_below(fanin));
      return {(target + 1 + pick) % n, target};
    }
  }
  SDNBUF_CHECK_MSG(false, "unknown traffic pattern");
  return {0, 1};
}

void TrafficMatrixWorkload::start() {
  SDNBUF_CHECK_MSG(!started_, "workload already started");
  started_ = true;
  horizon_ = sim_.now() + sim::SimTime::from_seconds(config_.duration_s);
  schedule_next_arrival();
}

void TrafficMatrixWorkload::schedule_next_arrival() {
  const double gap_s = rng_.exponential(1.0 / config_.flow_arrival_per_s);
  const sim::SimTime when = sim_.now() + sim::SimTime::from_seconds(gap_s);
  if (when > horizon_) return;  // arrival process ends at the horizon
  sim_.schedule_at(when, [this]() {
    start_flow();
    schedule_next_arrival();
  });
}

void TrafficMatrixWorkload::start_flow() {
  const std::uint64_t flow_index = flows_started_++;
  const auto [src, dst] = pick_pair(flow_index);
  const std::uint32_t total =
      draw_bounded_pareto(rng_, config_.pareto_alpha, config_.min_packets, config_.max_packets);
  flow_sizes_.add(static_cast<double>(total));
  emit_packet(flow_index, src, dst, 0, total);
}

void TrafficMatrixWorkload::emit_packet(std::uint64_t flow_index, unsigned src, unsigned dst,
                                        std::uint32_t seq, std::uint32_t total) {
  net::Packet p = net::make_udp_packet(
      config_.host_macs[src], config_.host_macs[dst], config_.host_ips[src],
      config_.host_ips[dst], static_cast<std::uint16_t>(10000 + flow_index % 50000),
      config_.dst_port, config_.frame_size);
  p.flow_id = config_.flow_id_base + flow_index;
  p.seq_in_flow = seq;
  p.created_at = sim_.now();
  emit_(src, p);
  ++packets_emitted_;
  if (seq + 1 >= total) return;
  sim::SimTime gap = sim::transmission_time(config_.frame_size, config_.in_flow_rate_mbps * 1e6);
  if (config_.spacing_jitter > 0) {
    gap = gap.scaled(
        rng_.uniform(1.0 - config_.spacing_jitter, 1.0 + config_.spacing_jitter));
  }
  sim_.schedule(gap, [this, flow_index, src, dst, seq, total]() {
    emit_packet(flow_index, src, dst, seq + 1, total);
  });
}

}  // namespace sdnbuf::host
