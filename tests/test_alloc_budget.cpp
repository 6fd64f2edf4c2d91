// Heap budget of the simulator's packet paths.
//
// A counting global operator new measures allocations per injected packet
// on three small runs, one per path: the single-switch miss path with table
// eviction, a leaf-spine incast under a Dynamic Threshold MMU with INT
// stamping and full-path installs, and a fat-tree permutation of long flows
// (the table-hit forwarding path). It also tracks live heap bytes, which
// bounds the peak heap a 10^5-flow E1 run holds per completed flow. The
// counts are deterministic for a fixed seed; each bound is the value
// measured when it was set plus 25%, so a change that reintroduces
// per-packet copies into closures, or per-flow state that outlives its
// flow, trips it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/experiment.hpp"
#include "core/fabric_experiment.hpp"
#include "topo/topology.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_live_bytes{0};

// Each block carries its requested size in a header ahead of the pointer
// handed out, so delete can debit the live-byte count.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void note_live(std::uint64_t live) {
  std::uint64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_live_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  auto* base = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base, &size, sizeof size);
  note_live(g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size);
  return base + kHeader;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* base = static_cast<unsigned char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, base, sizeof size);
  g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
  std::free(base);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace sdnbuf {
namespace {

// Allocations per packet before -> after packets and OpenFlow messages moved
// through the simulator instead of being copied into closures: single switch
// 52.96 -> 17.33, leaf-spine incast 82.21 -> 26.65, fat-tree 12.83 -> 3.68.
// Host injection then stopped copying the packet into its delivery event
// and the sink's seen-set became a flat table: 16.98 -> 12.97, 24.07 ->
// 22.05 and 3.55 -> 1.47. Each bound is the last figure plus 25%.
constexpr double kSingleSwitchBound = 16.3;
constexpr double kIncastBound = 27.6;
constexpr double kFatTreeBound = 1.9;
// 534.3 B before per-flow state was made compact and retired, 194.1 B
// after; the bound is the second figure plus 25%.
constexpr double kE1PeakBytesPerFlowBound = 243.0;

// Allocations per injected packet over one whole run (testbed build and
// warm-up included, as a user's run pays them).
template <class Run>
double allocations_per_packet(Run run) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t packets = run();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(packets, 0u);
  const double per_packet =
      static_cast<double>(after - before) / static_cast<double>(packets == 0 ? 1 : packets);
  std::printf("allocations per packet: %.2f (%llu packets)\n", per_packet,
              static_cast<unsigned long long>(packets));
  return per_packet;
}

TEST(AllocBudget, SingleSwitchMissPathWithEviction) {
  const double per_packet = allocations_per_packet([] {
    core::ExperimentConfig c;
    c.mode = sw::BufferMode::PacketGranularity;
    c.buffer_capacity = 256;
    c.rate_mbps = 50.0;
    c.n_flows = 4 * 256;
    c.packets_per_flow = 1;
    c.seed = 3;
    c.testbed.switch_config.flow_table_capacity = 256;
    const auto r = core::run_experiment(c);
    return r.packets_sent;
  });
  EXPECT_LE(per_packet, kSingleSwitchBound);
}

TEST(AllocBudget, LeafSpineIncastWithMmuAndInt) {
  const double per_packet = allocations_per_packet([] {
    core::FabricExperimentConfig c;
    c.topology = topo::make_leaf_spine(2, 4, 4);
    c.routing = core::FabricRouting::TopologyFullPath;
    c.mode = sw::BufferMode::PacketGranularity;
    c.buffer_capacity = 64;
    c.pattern = host::TrafficPattern::Incast;
    c.incast_target = 0;
    c.incast_fanin = 15;
    c.duration_s = 0.05;
    c.flow_arrival_per_s = 2000.0;
    c.min_packets = 4;
    c.max_packets = 32;
    c.in_flow_rate_mbps = 400.0;
    c.seed = 5;
    sw::SwitchConfig& s = c.fabric.switch_config;
    s.egress.queue_limit_bytes = 16 * 1024;
    s.telemetry_int_depth = 4;
    s.mmu.enabled = true;
    s.mmu.policy = sw::mmu::PolicyKind::DynamicThreshold;
    s.mmu.pool_cells = 1536;
    s.mmu.cell_bytes = 256;
    s.mmu.headroom_cells = 32;
    s.mmu.reserved_cells = 2;
    c.fabric.controller_config.cpu_cores = 4;
    const auto r = core::run_fabric_experiment(c);
    EXPECT_GT(r.int_stamps, 0u);
    EXPECT_GT(r.mmu_rejected, 0u);
    return r.packets_sent;
  });
  EXPECT_LE(per_packet, kIncastBound);
}

TEST(AllocBudget, FatTreeHitPath) {
  const double per_packet = allocations_per_packet([] {
    core::FabricExperimentConfig c;
    c.topology = topo::make_fat_tree(4);
    c.routing = core::FabricRouting::TopologyFullPath;
    c.mode = sw::BufferMode::FlowGranularity;
    c.pattern = host::TrafficPattern::Permutation;
    c.duration_s = 0.1;
    c.flow_arrival_per_s = 800.0;
    c.pareto_alpha = 1.5;
    c.min_packets = 20;
    c.max_packets = 300;
    c.in_flow_rate_mbps = 5.0;
    c.seed = 7;
    const auto r = core::run_fabric_experiment(c);
    return r.packets_sent;
  });
  EXPECT_LE(per_packet, kFatTreeBound);
}

// Peak live heap bytes per completed flow over an E1 run of 10^5
// single-packet flows (packet granularity, buffer-256, 50 Mbps). At most a
// few hundred flows are in flight at once, so what this measures is the
// state kept for every flow ever seen, such as the exact delay samples (8 B
// per value), the delay recorder's record and the sink's seen-set entry.
TEST(HeapBudget, E1PeakBytesPerCompletedFlow) {
  core::ExperimentConfig c;
  c.mode = sw::BufferMode::PacketGranularity;
  c.buffer_capacity = 256;
  c.rate_mbps = 50.0;
  c.n_flows = 100000;
  c.packets_per_flow = 1;
  c.seed = 1;
  const std::uint64_t live_before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(live_before, std::memory_order_relaxed);
  const auto r = core::run_experiment(c);
  const std::uint64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  ASSERT_EQ(r.flows_complete, c.n_flows);
  const double per_flow =
      static_cast<double>(peak - live_before) / static_cast<double>(r.flows_complete);
  std::printf("peak live heap bytes per completed flow: %.1f (%llu flows)\n", per_flow,
              static_cast<unsigned long long>(r.flows_complete));
  EXPECT_LE(per_flow, kE1PeakBytesPerFlowBound);
}

}  // namespace
}  // namespace sdnbuf
