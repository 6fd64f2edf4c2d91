// Baseline: rule-pushing strategies vs the reactive path the paper
// optimizes.
//
// Related work reduces controller requests by installing broader rules:
// aggregated/cached rules ([16], [17], [29]) or fully proactive authority
// rules (DevoFlow [10], DIFANE [15]). The extreme point — a proactive
// wildcard rule covering all traffic — eliminates packet_ins entirely, but
// gives up micro-flow visibility and control (no per-flow rules, no
// per-flow counters); /16 source aggregation sits in between. This bench
// places the buffer mechanisms on that axis: they keep the reactive model's
// per-flow control while approaching the rule-pushers' control-path costs.
#include <iostream>

#include "common.hpp"
#include "core/fabric_testbed.hpp"
#include "host/traffic_gen.hpp"
#include "util/csv.hpp"

namespace {

using namespace sdnbuf;

struct BaselineResult {
  double up_mbps = 0.0;
  double setup_ms = 0.0;
  std::uint64_t pkt_ins = 0;
  std::uint64_t per_flow_rules = 0;
};

BaselineResult run_strategy(bool proactive, sw::BufferMode mode, double rate,
                            std::uint64_t seed, int aggregate_src_bits = 0) {
  core::FabricConfig config = core::chain_fabric(1);
  config.switch_config.buffer_mode = mode;
  config.controller_config.aggregate_src_bits = aggregate_src_bits;
  config.seed = seed;
  metrics::DelayRecorder recorder;
  core::FabricTestbed bed{config};
  bed.set_delay_recorder(&recorder);
  bed.warm_up();

  if (proactive) {
    // One wildcard rule per direction, installed before any traffic — the
    // DIFANE-style authority shortcut. Host1 is on port 1, Host2 on port 2.
    of::FlowMod fm;
    fm.match = of::Match::wildcard_all();
    fm.match.wildcards &= ~of::kWildcardInPort;
    fm.match.in_port = 1;
    fm.priority = 10;
    fm.actions = of::output_to(2);
    bed.channel_at(0).send_from_controller(fm);
    bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(5));
  }

  host::TrafficConfig traffic;
  traffic.rate_mbps = rate;
  traffic.n_flows = 1000;
  traffic.src_mac = bed.host1_mac();
  traffic.dst_mac = bed.host2_mac();
  traffic.src_ip_base = bed.host1_ip();
  traffic.dst_ip = bed.host2_ip();
  host::TrafficGenerator gen{bed.sim(), traffic, seed * 3 + 1,
                             [&bed](const net::Packet& p) { bed.inject_from_host(0, p); }};
  const sim::SimTime start = bed.sim().now();
  gen.start();
  while (bed.sink_at(1).packets_received() < gen.total_packets() &&
         bed.sim().now() < start + sim::SimTime::seconds(10)) {
    bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(20));
  }
  bed.stop();
  bed.sim().run();

  BaselineResult r;
  const sim::SimTime end = bed.sink_at(1).last_arrival();
  r.up_mbps = bed.control_link_at(0).forward().tap().load_mbps(start, end);
  const auto delays = recorder.finalize();
  r.setup_ms = delays.setup_ms.count() > 0 ? delays.setup_ms.mean() : 0.0;
  r.pkt_ins = bed.switch_at(0).counters().pkt_ins_sent;
  // Per-flow rules = exact-match entries the reactive controller installed.
  r.per_flow_rules = bed.controller().counters().flow_mods_sent;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);

  util::TableWriter table("baseline: proactive wildcard rules vs reactive (+buffer), "
                          "1000 flows at 50 Mbps");
  table.set_columns({"strategy", "up Mbps", "pkt_ins", "per-flow rules", "setup ms"});
  struct Strategy {
    const char* label;
    bool proactive;
    sw::BufferMode mode;
    int aggregate_src_bits;
  };
  const Strategy strategies[] = {
      {"reactive, no buffer", false, sw::BufferMode::NoBuffer, 0},
      {"reactive, buffer-256", false, sw::BufferMode::PacketGranularity, 0},
      {"reactive, flow-granularity", false, sw::BufferMode::FlowGranularity, 0},
      {"reactive, /16 aggregated rules", false, sw::BufferMode::PacketGranularity, 16},
      {"proactive wildcard", true, sw::BufferMode::NoBuffer, 0},
  };
  for (const auto& s : strategies) {
    util::Summary up;
    util::Summary setup;
    util::Summary pkt_ins;
    util::Summary rules;
    for (int rep = 0; rep < options.repetitions; ++rep) {
      const auto r = run_strategy(s.proactive, s.mode, 50.0,
                                  options.seed * 23 + static_cast<std::uint64_t>(rep),
                                  s.aggregate_src_bits);
      up.add(r.up_mbps);
      setup.add(r.setup_ms);
      pkt_ins.add(static_cast<double>(r.pkt_ins));
      rules.add(static_cast<double>(r.per_flow_rules));
    }
    table.add_row({s.label, util::format_double(up.mean(), 3),
                   util::format_double(pkt_ins.mean(), 0), util::format_double(rules.mean(), 0),
                   util::format_double(setup.mean(), 3)});
  }
  table.print(std::cout);
  std::cout << "\nProactive rules zero the control path but install no per-flow state (no\n"
               "per-flow counters, no per-flow policy); the /16-aggregated strategy is\n"
               "nearly as cheap because its single block rule (installed on the first\n"
               "miss, during warm-up here) already covers every forged source. The\n"
               "buffer mechanisms keep the reactive model's micro-flow control at a\n"
               "fraction of its control cost — the niche the paper claims between fully\n"
               "reactive and DevoFlow/DIFANE-style rule pushing.\n";
  return 0;
}
