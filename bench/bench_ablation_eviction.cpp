// Ablation: flow-table eviction policy under table pressure.
//
// §VI.B's motivation — rules "kicked out from the size limited flow table"
// — depends on *which* rule gets kicked. The related work (LRU caching
// [13], flow-driven caching [17], adaptive wildcard caching [29]) is about
// exactly this choice. Here a skewed workload (a few hot flows + a long
// tail of one-off flows, Zipf-like) runs against an undersized table; every
// victim that gets re-used costs another packet_in, so the request count
// directly measures the policy's caching quality.
#include <iostream>

#include "common.hpp"
#include "core/fabric_testbed.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace {

using namespace sdnbuf;

struct EvictionResult {
  std::uint64_t pkt_ins = 0;
  std::uint64_t evictions = 0;
  double hit_rate_pct = 0.0;
};

EvictionResult run_policy(sw::EvictionPolicy policy, std::uint64_t seed) {
  core::FabricConfig config = core::chain_fabric(1);
  config.switch_config.buffer_mode = sw::BufferMode::PacketGranularity;
  config.switch_config.flow_table_capacity = 48;
  config.switch_config.eviction_policy = policy;
  config.seed = seed;
  core::FabricTestbed bed{config};
  bed.warm_up();

  // 3000 packet arrivals: 70% drawn from 24 hot flows (fits in half the
  // table), 30% from a 2000-flow cold tail (each cold flow ~once).
  util::Rng rng{seed * 131 + 7};
  const sim::SimTime gap = sim::SimTime::microseconds(200);
  std::uint32_t cold_next = 1000;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const bool hot = rng.next_double() < 0.7;
    const std::uint32_t flow =
        hot ? static_cast<std::uint32_t>(rng.next_below(24)) : cold_next++;
    net::Packet p = net::make_udp_packet(bed.host1_mac(), bed.host2_mac(),
                                         net::Ipv4Address{0x0a010001u + flow}, bed.host2_ip(),
                                         static_cast<std::uint16_t>(10000 + flow % 20000), 9,
                                         500);
    p.flow_id = flow;
    bed.sim().schedule_at(bed.sim().now() + gap.scaled(i),
                          [&bed, p]() { bed.inject_from_host(0, p); });
  }
  bed.sim().run_until(bed.sim().now() + sim::SimTime::seconds(2));
  bed.stop();
  bed.sim().run();

  EvictionResult r;
  r.pkt_ins = bed.switch_at(0).counters().pkt_ins_sent;
  r.evictions = bed.switch_at(0).flow_table().evictions();
  r.hit_rate_pct = 100.0 * static_cast<double>(bed.switch_at(0).flow_table().hits()) /
                   static_cast<double>(bed.switch_at(0).flow_table().lookups());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);

  util::TableWriter table(
      "ablation: eviction policy, 48-rule table, skewed workload "
      "(24 hot flows + cold tail, 3000 packets)");
  table.set_columns({"policy", "pkt_ins", "evictions", "table hit rate %"});
  for (const auto policy :
       {sw::EvictionPolicy::Lru, sw::EvictionPolicy::Fifo, sw::EvictionPolicy::Random}) {
    util::Summary pkt_ins;
    util::Summary evictions;
    util::Summary hit_rate;
    for (int rep = 0; rep < options.repetitions; ++rep) {
      const auto r = run_policy(policy, options.seed * 17 + static_cast<std::uint64_t>(rep));
      pkt_ins.add(static_cast<double>(r.pkt_ins));
      evictions.add(static_cast<double>(r.evictions));
      hit_rate.add(r.hit_rate_pct);
    }
    table.add_row({sw::eviction_policy_name(policy), util::format_double(pkt_ins.mean(), 0),
                   util::format_double(evictions.mean(), 0),
                   util::format_double(hit_rate.mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "\nLRU keeps the hot flows resident (fewest repeat packet_ins); FIFO and\n"
               "random keep evicting them — every re-miss is another request the buffer\n"
               "mechanism then has to absorb. Rule caching and switch buffering attack\n"
               "the same overhead from opposite ends.\n";
  return 0;
}
