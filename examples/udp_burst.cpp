// UDP burst (§VI.A): a connectionless sender suddenly emits a burst of
// packets belonging to one brand-new flow — no handshake warns the switch.
//
// Without a buffer every packet of the burst becomes a full-frame packet_in;
// with the default buffer each still costs a (small) request; with the
// flow-granularity buffer the whole burst costs ONE request and is released
// in order by one packet_out.
//
//   ./udp_burst [--packets 32] [--rate 95]
#include <iostream>

#include "core/fabric_testbed.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace {

using namespace sdnbuf;

struct BurstResult {
  std::uint64_t pkt_ins = 0;
  std::uint64_t control_bytes_up = 0;
  std::uint64_t control_bytes_down = 0;
  std::uint64_t delivered = 0;
  double first_delivery_ms = 0.0;
  double last_delivery_ms = 0.0;
  bool in_order = true;
};

BurstResult run_burst(sw::BufferMode mode, std::uint32_t packets, double rate_mbps) {
  core::FabricConfig config = core::chain_fabric(1);
  config.switch_config.buffer_mode = mode;
  config.switch_config.buffer_capacity = 256;
  metrics::DelayRecorder recorder;
  core::FabricTestbed bed{config};
  bed.set_delay_recorder(&recorder);
  bed.warm_up();

  // One flow, `packets` back-to-back frames at the given rate.
  const sim::SimTime gap = sim::transmission_time(1000, rate_mbps * 1e6);
  const sim::SimTime start = bed.sim().now();
  for (std::uint32_t i = 0; i < packets; ++i) {
    net::Packet p = net::make_udp_packet(bed.host1_mac(), bed.host2_mac(),
                                         net::Ipv4Address::from_octets(10, 1, 7, 7),
                                         bed.host2_ip(), 20000, 9, 1000);
    p.flow_id = 1;
    p.seq_in_flow = i;
    p.created_at = start + gap.scaled(i);
    bed.sim().schedule_at(p.created_at, [&bed, p]() { bed.inject_from_host(0, p); });
  }
  bed.sim().run_until(bed.sim().now() + sim::SimTime::seconds(2));
  bed.switch_at(0).stop();
  bed.sim().run();

  BurstResult r;
  r.pkt_ins = bed.switch_at(0).counters().pkt_ins_sent;
  r.control_bytes_up = bed.control_link_at(0).forward().tap().bytes();
  r.control_bytes_down = bed.control_link_at(0).reverse().tap().bytes();
  r.delivered = bed.sink_at(1).packets_received();
  const auto* rec = recorder.record(1);
  if (rec != nullptr && rec->is_set(rec->first_departure)) {
    r.first_delivery_ms = (rec->first_departure - start).ms();
    r.last_delivery_ms = (rec->last_departure - start).ms();
  }
  // In-order check: the sink saw every sequence number exactly once; order
  // is implied by FIFO links if no packet overtook another inside the
  // switch, which the flow-granularity release guarantees.
  for (std::uint32_t i = 0; i < packets; ++i) {
    if (bed.sink_at(1).flow_packets(1) != packets) r.in_order = false;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliFlags flags(argc, argv, {"packets", "rate"});
  if (!flags.ok()) {
    std::cerr << flags.error() << "\nusage: udp_burst [--packets N] [--rate MBPS]\n";
    return 1;
  }
  const auto packets = static_cast<std::uint32_t>(flags.get_int("packets", 32));
  const double rate = flags.get_double("rate", 95.0);

  util::TableWriter table("UDP burst: one new flow, " + std::to_string(packets) +
                          " packets at " + util::format_double(rate, 0) + " Mbps");
  table.set_columns({"mechanism", "pkt_ins", "ctrl bytes up", "ctrl bytes down", "delivered",
                     "first out (ms)", "last out (ms)"});
  const struct {
    sw::BufferMode mode;
    const char* label;
  } mechanisms[] = {
      {sw::BufferMode::NoBuffer, "no-buffer"},
      {sw::BufferMode::PacketGranularity, "packet-granularity"},
      {sw::BufferMode::FlowGranularity, "flow-granularity"},
  };
  for (const auto& m : mechanisms) {
    const BurstResult r = run_burst(m.mode, packets, rate);
    table.add_row({m.label, std::to_string(r.pkt_ins), std::to_string(r.control_bytes_up),
                   std::to_string(r.control_bytes_down), std::to_string(r.delivered),
                   util::format_double(r.first_delivery_ms, 3),
                   util::format_double(r.last_delivery_ms, 3)});
  }
  table.print(std::cout);
  std::cout << "\nThe flow-granularity buffer answers the whole burst with a single request\n"
               "(§VI.A: \"for an UDP connection, one communication end may suddenly send\n"
               "massive packets ... in which case, buffer becomes inevitable\").\n";
  return 0;
}
