// Extension: the buffer mechanisms under an Internet-like workload —
// Poisson flow arrivals, heavy-tailed (bounded-Pareto) flow sizes — instead
// of the paper's regular fixed-size flows (motivated by the paper's own
// reference [27] on real TCP/UDP flow mixes).
//
// With many tiny flows and a few elephants arriving randomly, the
// flow-granularity buffer's advantage concentrates where it matters: the
// elephants' early packets arrive before their rule and would each cost a
// request under the default mechanism.
#include <iostream>

#include "common.hpp"
#include "core/fabric_testbed.hpp"
#include "host/synthetic_workload.hpp"
#include "util/csv.hpp"

namespace {

using namespace sdnbuf;

struct WorkloadResult {
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  std::uint64_t pkt_ins = 0;
  double up_mbps = 0.0;
  std::uint64_t delivered = 0;
  double p50_flow_size = 0.0;
  double p99_flow_size = 0.0;
};

WorkloadResult run_mechanism(sw::BufferMode mode, double arrivals_per_s, std::uint64_t seed) {
  core::FabricConfig config = core::chain_fabric(1);
  config.switch_config.buffer_mode = mode;
  config.seed = seed;
  core::FabricTestbed bed{config};
  bed.warm_up();

  host::WorkloadConfig workload;
  workload.duration_s = 0.5;
  workload.flow_arrival_per_s = arrivals_per_s;
  workload.pareto_alpha = 1.3;
  workload.min_packets = 1;
  workload.max_packets = 100;
  workload.in_flow_rate_mbps = 30.0;
  workload.src_mac = bed.host1_mac();
  workload.dst_mac = bed.host2_mac();
  workload.src_ip_base = bed.host1_ip();
  workload.dst_ip = bed.host2_ip();
  host::SyntheticWorkload gen{bed.sim(), workload, seed * 5 + 3,
                              [&bed](const net::Packet& p) { bed.inject_from_host(0, p); }};
  const sim::SimTime start = bed.sim().now();
  gen.start();
  // Run until everything injected has drained (arrivals stop at 0.5 s).
  while (bed.sim().now() < start + sim::SimTime::seconds(3) &&
         (bed.sink_at(1).packets_received() < gen.packets_emitted() ||
          bed.sim().now() < start + sim::SimTime::from_seconds(workload.duration_s))) {
    bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(20));
  }
  bed.stop();
  bed.sim().run();

  WorkloadResult r;
  r.flows = gen.flows_started();
  r.packets = gen.packets_emitted();
  r.pkt_ins = bed.switch_at(0).counters().pkt_ins_sent;
  r.delivered = bed.sink_at(1).packets_received();
  const sim::SimTime end = bed.sink_at(1).last_arrival();
  if (end > start) r.up_mbps = bed.control_link_at(0).forward().tap().load_mbps(start, end);
  r.p50_flow_size = gen.flow_sizes().median();
  r.p99_flow_size = gen.flow_sizes().percentile(99);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);

  util::TableWriter table("realistic workload: Poisson arrivals, Pareto(1.3) flow sizes "
                          "(1-100 packets), 500 ms of arrivals");
  table.set_columns({"mechanism", "arrivals/s", "flows", "packets", "pkt_ins", "pkt_in/flow",
                     "up Mbps", "delivered %"});
  for (const double arrivals : {200.0, 600.0}) {
    for (const auto& mechanism :
         {bench::MechanismSpec{"no-buffer", sw::BufferMode::NoBuffer, 0},
          bench::MechanismSpec{"packet-granularity", sw::BufferMode::PacketGranularity, 256},
          bench::MechanismSpec{"flow-granularity", sw::BufferMode::FlowGranularity, 256}}) {
      util::Summary flows;
      util::Summary packets;
      util::Summary pkt_ins;
      util::Summary up;
      util::Summary delivered_pct;
      for (int rep = 0; rep < options.repetitions; ++rep) {
        const auto r = run_mechanism(mechanism.mode, arrivals,
                                     options.seed * 41 + static_cast<std::uint64_t>(rep));
        flows.add(static_cast<double>(r.flows));
        packets.add(static_cast<double>(r.packets));
        pkt_ins.add(static_cast<double>(r.pkt_ins));
        up.add(r.up_mbps);
        delivered_pct.add(100.0 * static_cast<double>(r.delivered) /
                          static_cast<double>(r.packets));
      }
      table.add_row({mechanism.label, util::format_double(arrivals, 0),
                     util::format_double(flows.mean(), 0),
                     util::format_double(packets.mean(), 0),
                     util::format_double(pkt_ins.mean(), 0),
                     util::format_double(pkt_ins.mean() / flows.mean(), 2),
                     util::format_double(up.mean(), 3),
                     util::format_double(delivered_pct.mean(), 1)});
    }
  }
  table.print(std::cout);
  std::cout << "\nUnder heavy-tailed arrivals the default mechanism pays >1 request per\n"
               "flow (the elephants' early packets); the flow-granularity buffer pins it\n"
               "at exactly 1 while delivering everything.\n";
  return 0;
}
