// Unit tests for the traffic generator (pktgen stand-in) and the host sink:
// rates, forged source addresses, emission orders (sequential and the
// paper's cross-sequence batches), metadata stamping, duplicate detection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "host/sink.hpp"
#include "host/synthetic_workload.hpp"
#include "host/traffic_gen.hpp"
#include "util/rng.hpp"

namespace sdnbuf::host {
namespace {

TrafficConfig base_config() {
  TrafficConfig c;
  c.rate_mbps = 100.0;
  c.frame_size = 1000;
  c.src_mac = net::MacAddress::from_index(1);
  c.dst_mac = net::MacAddress::from_index(2);
  c.spacing_jitter = 0.0;  // deterministic spacing for assertions
  return c;
}

TEST(TrafficGen, EmitsExactPacketCount) {
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.n_flows = 10;
  c.packets_per_flow = 3;
  std::vector<net::Packet> out;
  TrafficGenerator gen{sim, c, 1, [&](const net::Packet& p) { out.push_back(p); }};
  gen.start();
  sim.run();
  EXPECT_EQ(out.size(), 30u);
  EXPECT_EQ(gen.packets_emitted(), 30u);
}

TEST(TrafficGen, NominalGapMatchesRate) {
  sim::Simulator sim;
  TrafficConfig c = base_config();  // 1000 B at 100 Mbps = 80 us
  TrafficGenerator gen{sim, c, 1, [](const net::Packet&) {}};
  EXPECT_EQ(gen.nominal_gap(), sim::SimTime::microseconds(80));
  c.rate_mbps = 5.0;  // 1.6 ms
  TrafficGenerator slow{sim, c, 1, [](const net::Packet&) {}};
  EXPECT_EQ(slow.nominal_gap(), sim::SimTime::microseconds(1600));
}

TEST(TrafficGen, DeterministicSpacingWithoutJitter) {
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.n_flows = 5;
  std::vector<sim::SimTime> times;
  TrafficGenerator gen{sim, c, 1, [&](const net::Packet&) { times.push_back(sim.now()); }};
  gen.start();
  sim.run();
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], sim::SimTime::microseconds(80));
  }
}

TEST(TrafficGen, JitterVariesSpacingWithinBounds) {
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.n_flows = 200;
  c.spacing_jitter = 0.1;
  std::vector<sim::SimTime> times;
  TrafficGenerator gen{sim, c, 42, [&](const net::Packet&) { times.push_back(sim.now()); }};
  gen.start();
  sim.run();
  bool varied = false;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double gap_us = (times[i] - times[i - 1]).us();
    EXPECT_GE(gap_us, 80.0 * 0.9 - 1e-6);
    EXPECT_LE(gap_us, 80.0 * 1.1 + 1e-6);
    if (std::abs(gap_us - 80.0) > 0.5) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(TrafficGen, ForgedSourceAddressesPerFlow) {
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.n_flows = 50;
  std::set<std::uint32_t> src_ips;
  std::set<net::FlowKey> keys;
  TrafficGenerator gen{sim, c, 1, [&](const net::Packet& p) {
                         src_ips.insert(p.ip.src.value());
                         keys.insert(p.flow_key());
                       }};
  gen.start();
  sim.run();
  EXPECT_EQ(src_ips.size(), 50u);  // every flow forges a distinct source IP
  EXPECT_EQ(keys.size(), 50u);
}

TEST(TrafficGen, SequentialOrderGroupsFlows) {
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.n_flows = 3;
  c.packets_per_flow = 2;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  TrafficGenerator gen{sim, c, 1,
                       [&](const net::Packet& p) { order.emplace_back(p.flow_id, p.seq_in_flow); }};
  gen.start();
  sim.run();
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> expected{
      {0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}};
  EXPECT_EQ(order, expected);
}

TEST(TrafficGen, CrossSequenceInterleavesBatch) {
  // The paper's §V.B pattern: batches of 5 flows, packets round-robin.
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.order = EmissionOrder::CrossSequence;
  c.n_flows = 10;
  c.packets_per_flow = 2;
  c.batch_size = 5;
  std::vector<std::uint64_t> flow_order;
  TrafficGenerator gen{sim, c, 1,
                       [&](const net::Packet& p) { flow_order.push_back(p.flow_id); }};
  gen.start();
  sim.run();
  const std::vector<std::uint64_t> expected{
      0, 1, 2, 3, 4, 0, 1, 2, 3, 4,   // batch 1: two rounds of 5 flows
      5, 6, 7, 8, 9, 5, 6, 7, 8, 9};  // batch 2
  EXPECT_EQ(flow_order, expected);
}

TEST(TrafficGen, CrossSequenceSeqNumbersPerFlow) {
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.order = EmissionOrder::CrossSequence;
  c.n_flows = 5;
  c.packets_per_flow = 4;
  std::map<std::uint64_t, std::vector<std::uint32_t>> seqs;
  TrafficGenerator gen{sim, c, 1,
                       [&](const net::Packet& p) { seqs[p.flow_id].push_back(p.seq_in_flow); }};
  gen.start();
  sim.run();
  ASSERT_EQ(seqs.size(), 5u);
  for (const auto& [flow, seq] : seqs) {
    EXPECT_EQ(seq, (std::vector<std::uint32_t>{0, 1, 2, 3})) << "flow " << flow;
  }
}

TEST(TrafficGen, FlowIdBaseOffsetsMetadata) {
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.n_flows = 3;
  c.flow_id_base = 1000;
  std::vector<std::uint64_t> ids;
  TrafficGenerator gen{sim, c, 1, [&](const net::Packet& p) { ids.push_back(p.flow_id); }};
  gen.start();
  sim.run();
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1000, 1001, 1002}));
}

TEST(TrafficGen, StartDelayAndCompletionCallback) {
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.n_flows = 2;
  sim::SimTime first_emit;
  sim::SimTime done_at;
  bool first = true;
  TrafficGenerator gen{sim, c, 1, [&](const net::Packet&) {
                         if (first) {
                           first_emit = sim.now();
                           first = false;
                         }
                       }};
  gen.start(sim::SimTime::milliseconds(5), [&]() { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(first_emit, sim::SimTime::milliseconds(5));
  EXPECT_EQ(done_at, sim::SimTime::milliseconds(5) + sim::SimTime::microseconds(80));
}

TEST(TrafficGen, CreatedAtStamped) {
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.n_flows = 2;
  std::vector<sim::SimTime> stamps;
  TrafficGenerator gen{sim, c, 1, [&](const net::Packet& p) { stamps.push_back(p.created_at); }};
  gen.start();
  sim.run();
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0], sim::SimTime::zero());
  EXPECT_EQ(stamps[1], sim::SimTime::microseconds(80));
}

TEST(TrafficGen, TcpFlowFractionMixesProtocols) {
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.n_flows = 100;
  c.tcp_flow_fraction = 0.25;
  std::uint64_t tcp = 0;
  std::uint64_t udp = 0;
  std::set<net::FlowKey> keys;
  TrafficGenerator gen{sim, c, 1, [&](const net::Packet& p) {
                         (p.ip.protocol == net::kIpProtoTcp ? tcp : udp) += 1;
                         keys.insert(p.flow_key());
                         if (p.ip.protocol == net::kIpProtoTcp) {
                           EXPECT_EQ(p.tcp.flags, net::kTcpAck | net::kTcpPsh);
                         }
                       }};
  gen.start();
  sim.run();
  EXPECT_EQ(tcp, 25u);  // deterministic assignment: 25% of 100 flows
  EXPECT_EQ(udp, 75u);
  EXPECT_EQ(keys.size(), 100u);  // TCP and UDP flows remain distinct 5-tuples
}

TEST(TrafficGen, PureTcpWorkload) {
  sim::Simulator sim;
  TrafficConfig c = base_config();
  c.n_flows = 10;
  c.tcp_flow_fraction = 1.0;
  std::uint64_t tcp = 0;
  TrafficGenerator gen{sim, c, 1, [&](const net::Packet& p) {
                         if (p.ip.protocol == net::kIpProtoTcp) ++tcp;
                       }};
  gen.start();
  sim.run();
  EXPECT_EQ(tcp, 10u);
}

// --- synthetic heavy-tailed workload ---

WorkloadConfig workload_config() {
  WorkloadConfig c;
  c.duration_s = 0.5;
  c.flow_arrival_per_s = 400;
  c.src_mac = net::MacAddress::from_index(1);
  c.dst_mac = net::MacAddress::from_index(2);
  return c;
}

TEST(SyntheticWorkload, ArrivalCountNearPoissonMean) {
  sim::Simulator sim;
  SyntheticWorkload gen{sim, workload_config(), 42, [](const net::Packet&) {}};
  gen.start();
  sim.run();
  // 400/s for 0.5 s -> ~200 flows; allow 4 sigma (sigma = sqrt(200) ~ 14).
  EXPECT_GT(gen.flows_started(), 140u);
  EXPECT_LT(gen.flows_started(), 260u);
  EXPECT_GE(gen.packets_emitted(), gen.flows_started());
}

TEST(SyntheticWorkload, FlowSizesAreBoundedAndHeavyTailed) {
  sim::Simulator sim;
  WorkloadConfig c = workload_config();
  c.duration_s = 5.0;  // plenty of flows for distribution checks
  c.min_packets = 1;
  c.max_packets = 100;
  SyntheticWorkload gen{sim, c, 42, [](const net::Packet&) {}};
  gen.start();
  sim.run();
  const auto& sizes = gen.flow_sizes();
  ASSERT_GT(sizes.count(), 500u);
  EXPECT_GE(sizes.min(), 1.0);
  EXPECT_LE(sizes.max(), 100.0);
  // Heavy tail: the median is tiny but the 99th percentile is large.
  EXPECT_LE(sizes.median(), 3.0);
  EXPECT_GE(sizes.percentile(99), 20.0);
  EXPECT_GT(sizes.mean(), sizes.median());  // right-skewed
}

TEST(SyntheticWorkload, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> emissions;
    SyntheticWorkload gen{sim, workload_config(), seed, [&](const net::Packet& p) {
                            emissions.emplace_back(p.flow_id, p.seq_in_flow);
                          }};
    gen.start();
    sim.run();
    return emissions;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(SyntheticWorkload, PerFlowSequenceNumbersAreDense) {
  sim::Simulator sim;
  std::map<std::uint64_t, std::uint32_t> max_seq;
  std::map<std::uint64_t, std::uint32_t> count;
  SyntheticWorkload gen{sim, workload_config(), 13, [&](const net::Packet& p) {
                          max_seq[p.flow_id] = std::max(max_seq[p.flow_id], p.seq_in_flow);
                          ++count[p.flow_id];
                        }};
  gen.start();
  sim.run();
  for (const auto& [flow, n] : count) {
    EXPECT_EQ(n, max_seq[flow] + 1) << "flow " << flow << " has gaps";
  }
}

TEST(SyntheticWorkload, DistinctSourceAddressesPerFlow) {
  sim::Simulator sim;
  std::map<std::uint64_t, std::uint32_t> flow_src;
  SyntheticWorkload gen{sim, workload_config(), 21, [&](const net::Packet& p) {
                          const auto [it, inserted] =
                              flow_src.try_emplace(p.flow_id, p.ip.src.value());
                          if (!inserted) {
                            EXPECT_EQ(it->second, p.ip.src.value());
                          }
                        }};
  gen.start();
  sim.run();
  std::set<std::uint32_t> ips;
  for (const auto& [flow, ip] : flow_src) ips.insert(ip);
  EXPECT_EQ(ips.size(), flow_src.size());
}

// --- bounded-Pareto flow-size distribution ---
//
// draw_bounded_pareto feeds every heavy-tailed workload in the repo
// (SyntheticWorkload and the fabric TrafficMatrixWorkload), so its first
// moment is pinned against the closed form here.

// Mean of the continuous bounded Pareto on [lo, hi] with shape alpha != 1:
//   E[X] = lo^a / (1 - (lo/hi)^a) * a/(a-1) * (lo^(1-a) - hi^(1-a))
double bounded_pareto_mean(double alpha, double lo, double hi) {
  return std::pow(lo, alpha) / (1.0 - std::pow(lo / hi, alpha)) * alpha / (alpha - 1.0) *
         (std::pow(lo, 1.0 - alpha) - std::pow(hi, 1.0 - alpha));
}

TEST(BoundedPareto, EmpiricalMeanMatchesClosedFormAcrossSeeds) {
  struct Case {
    double alpha;
    std::uint32_t lo;
    std::uint32_t hi;
  };
  // The workload defaults (alpha 1.3) at two truncation points, plus a
  // lighter tail away from lo = 1 to exercise the round-to-int path.
  const Case cases[] = {{1.3, 1, 200}, {1.3, 1, 1000}, {2.5, 4, 400}};
  constexpr std::size_t kDraws = 100000;
  for (const auto& c : cases) {
    const double expected = bounded_pareto_mean(c.alpha, c.lo, c.hi);
    for (const std::uint64_t seed : {1ULL, 42ULL, 12345ULL}) {
      util::Rng rng(seed);
      double sum = 0.0;
      for (std::size_t i = 0; i < kDraws; ++i) {
        const std::uint32_t x = draw_bounded_pareto(rng, c.alpha, c.lo, c.hi);
        ASSERT_GE(x, c.lo);
        ASSERT_LE(x, c.hi);
        sum += static_cast<double>(x);
      }
      // 5% band: sampling error (sigma/sqrt(N) is well under 1% of the mean
      // for every case here) plus the bias from rounding draws to integer
      // packet counts (~1-2% when lo = 1, where the density is steepest).
      const double mean = sum / static_cast<double>(kDraws);
      EXPECT_NEAR(mean, expected, 0.05 * expected)
          << "alpha=" << c.alpha << " [" << c.lo << ", " << c.hi << "] seed=" << seed;
    }
  }
}

TEST(BoundedPareto, DegenerateRangeAlwaysReturnsBound) {
  util::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(draw_bounded_pareto(rng, 1.3, 7, 7), 7u);
  }
}

TEST(Sink, CountsAndLatency) {
  sim::Simulator sim;
  HostSink sink{sim};
  net::Packet p = net::make_udp_packet(net::MacAddress::from_index(1),
                                       net::MacAddress::from_index(2),
                                       net::Ipv4Address::from_octets(10, 1, 0, 1),
                                       net::Ipv4Address::from_octets(10, 2, 0, 1), 1, 2, 500);
  p.flow_id = 3;
  p.created_at = sim::SimTime::zero();
  sim.schedule(sim::SimTime::milliseconds(2), [&]() { sink.receive(p); });
  sim.run();
  EXPECT_EQ(sink.packets_received(), 1u);
  EXPECT_EQ(sink.bytes_received(), 500u);
  EXPECT_EQ(sink.last_arrival(), sim::SimTime::milliseconds(2));
  ASSERT_EQ(sink.latency_ms().count(), 1u);
  EXPECT_DOUBLE_EQ(sink.latency_ms().mean(), 2.0);
  EXPECT_EQ(sink.flow_packets(3), 1u);
}

TEST(Sink, DetectsDuplicates) {
  sim::Simulator sim;
  HostSink sink{sim};
  net::Packet p = net::make_udp_packet(net::MacAddress::from_index(1),
                                       net::MacAddress::from_index(2),
                                       net::Ipv4Address::from_octets(10, 1, 0, 1),
                                       net::Ipv4Address::from_octets(10, 2, 0, 1), 1, 2, 500);
  p.flow_id = 1;
  p.seq_in_flow = 0;
  sink.receive(p);
  sink.receive(p);  // duplicate delivery (e.g. flood + rule forward)
  p.seq_in_flow = 1;
  sink.receive(p);  // different packet of the same flow: not a duplicate
  EXPECT_EQ(sink.duplicate_packets(), 1u);
  EXPECT_EQ(sink.flow_packets(1), 3u);
}

net::Packet sink_packet(std::uint64_t flow_id, std::uint32_t seq) {
  net::Packet p = net::make_udp_packet(net::MacAddress::from_index(1),
                                       net::MacAddress::from_index(2),
                                       net::Ipv4Address::from_octets(10, 1, 0, 1),
                                       net::Ipv4Address::from_octets(10, 2, 0, 1), 1, 2, 500);
  p.flow_id = flow_id;
  p.seq_in_flow = seq;
  return p;
}

TEST(Sink, OutOfOrderFirstCopiesAreNotDuplicates) {
  sim::Simulator sim;
  HostSink sink{sim};
  std::vector<std::uint32_t> first_copies;
  sink.set_on_receive([&](const net::Packet& p) { first_copies.push_back(p.seq_in_flow); });
  for (const std::uint32_t seq : {2u, 0u, 3u, 1u, 5u}) sink.receive(sink_packet(1, seq));
  EXPECT_EQ(sink.duplicate_packets(), 0u);
  EXPECT_EQ(sink.flow_packets(1), 5u);
  EXPECT_EQ(first_copies, (std::vector<std::uint32_t>{2, 0, 3, 1, 5}));
  // The same seqs on another flow are that flow's first copies.
  for (const std::uint32_t seq : {1u, 0u}) sink.receive(sink_packet(2, seq));
  EXPECT_EQ(sink.duplicate_packets(), 0u);
  EXPECT_EQ(sink.flow_packets(2), 2u);
}

TEST(Sink, DuplicatesAreExactBelowAndAheadOfTheGap) {
  sim::Simulator sim;
  HostSink sink{sim};
  std::uint64_t first_copies = 0;
  sink.set_on_receive([&](const net::Packet&) { ++first_copies; });
  // 0..1 in order, then 4 and 6 ahead of the gap at 2.
  for (const std::uint32_t seq : {0u, 1u, 4u, 6u}) sink.receive(sink_packet(7, seq));
  sink.receive(sink_packet(7, 1));  // below the gap
  sink.receive(sink_packet(7, 4));  // ahead of the gap, already seen
  sink.receive(sink_packet(7, 6));  // ahead of the gap, already seen
  EXPECT_EQ(sink.duplicate_packets(), 3u);
  // Closing the gap absorbs 4 but not 6 (5 is still missing).
  sink.receive(sink_packet(7, 2));
  sink.receive(sink_packet(7, 3));
  sink.receive(sink_packet(7, 4));  // now below the gap at 5
  sink.receive(sink_packet(7, 5));
  sink.receive(sink_packet(7, 6));  // absorbed when 5 arrived
  sink.receive(sink_packet(7, 7));
  EXPECT_EQ(sink.duplicate_packets(), 5u);
  EXPECT_EQ(first_copies, 8u);
  EXPECT_EQ(sink.flow_packets(7), 13u);
  EXPECT_EQ(sink.flow_packets(8), 0u);
}

TEST(Sink, ResetClearsEverything) {
  sim::Simulator sim;
  HostSink sink{sim};
  net::Packet p = net::make_udp_packet(net::MacAddress::from_index(1),
                                       net::MacAddress::from_index(2),
                                       net::Ipv4Address::from_octets(10, 1, 0, 1),
                                       net::Ipv4Address::from_octets(10, 2, 0, 1), 1, 2, 500);
  sink.receive(p);
  sink.receive(sink_packet(1, 3));  // ahead of the gap
  sink.reset();
  EXPECT_EQ(sink.packets_received(), 0u);
  EXPECT_EQ(sink.bytes_received(), 0u);
  EXPECT_EQ(sink.latency_ms().count(), 0u);
  EXPECT_EQ(sink.flow_packets(1), 0u);
  // Both halves of the seen-set are gone: neither seq is a duplicate now.
  sink.receive(sink_packet(1, 0));
  sink.receive(sink_packet(1, 3));
  EXPECT_EQ(sink.duplicate_packets(), 0u);
}

}  // namespace
}  // namespace sdnbuf::host
