// Control-channel inspection: attach the capture (the tcpdump stand-in) to
// a live testbed, run a tiny workload under the flow-granularity buffer,
// and dump the dissected message trace — the debugging workflow for anyone
// modifying a buffer mechanism.
//
//   ./inspect_control_channel [--flows 3] [--packets 4] [--filter packet_in]
#include <iostream>

#include "core/fabric_testbed.hpp"
#include "host/traffic_gen.hpp"
#include "openflow/capture.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace sdnbuf;
  const util::CliFlags flags(argc, argv, {"flows", "packets", "filter", "mode"});
  if (!flags.ok()) {
    std::cerr << flags.error()
              << "\nusage: inspect_control_channel [--flows N] [--packets N]"
                 " [--filter TYPE] [--mode no-buffer|packet|flow]\n";
    return 1;
  }
  const auto n_flows = static_cast<std::uint64_t>(flags.get_int("flows", 3));
  const auto packets = static_cast<std::uint32_t>(flags.get_int("packets", 4));
  const std::string filter = flags.get_string("filter", "");
  const std::string mode_name = flags.get_string("mode", "flow");

  core::FabricConfig config = core::chain_fabric(1);
  config.switch_config.buffer_mode = mode_name == "no-buffer"
                                         ? sw::BufferMode::NoBuffer
                                     : mode_name == "packet"
                                         ? sw::BufferMode::PacketGranularity
                                         : sw::BufferMode::FlowGranularity;
  core::FabricTestbed bed{config};
  of::ChannelCapture capture;
  capture.attach(bed.channel_at(0));
  bed.warm_up();
  capture.clear();  // keep only the measured workload in the trace

  host::TrafficConfig traffic;
  traffic.rate_mbps = 95.0;
  traffic.n_flows = n_flows;
  traffic.packets_per_flow = packets;
  traffic.order = host::EmissionOrder::CrossSequence;
  traffic.batch_size = static_cast<std::uint32_t>(n_flows);
  traffic.src_mac = bed.host1_mac();
  traffic.dst_mac = bed.host2_mac();
  traffic.src_ip_base = bed.host1_ip();
  traffic.dst_ip = bed.host2_ip();
  host::TrafficGenerator gen{bed.sim(), traffic, 7,
                             [&bed](const net::Packet& p) { bed.inject_from_host(0, p); }};
  gen.start();
  bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(200));
  bed.stop();
  bed.sim().run();

  std::cout << "== control-channel capture: " << sw::buffer_mode_name(config.switch_config.buffer_mode)
            << ", " << n_flows << " flows x " << packets << " packets ==\n";
  capture.dump(std::cout, filter);
  std::cout << "\ntotals: " << capture.total_messages(of::Direction::ToController)
            << " msgs / " << capture.total_bytes(of::Direction::ToController)
            << " B up,  " << capture.total_messages(of::Direction::ToSwitch) << " msgs / "
            << capture.total_bytes(of::Direction::ToSwitch) << " B down;  delivered "
            << bed.sink_at(1).packets_received() << '/' << gen.total_packets() << " packets\n";
  return 0;
}
