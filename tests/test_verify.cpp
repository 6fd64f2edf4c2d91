// Tests for the invariant-checking layer (src/verify): registry unit tests
// that deliberately break each invariant, a clean-run end-to-end check, the
// same-seed determinism regression test, and a fuzzer smoke test.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/experiment.hpp"
#include "net/packet.hpp"
#include "openflow/capture.hpp"
#include "openflow/constants.hpp"
#include "verify/invariants.hpp"
#include "verify/scenario_gen.hpp"

using namespace sdnbuf;

namespace {

net::Packet test_packet(std::uint64_t flow_id, std::uint32_t seq) {
  net::Packet p = net::make_udp_packet(
      net::MacAddress::from_index(1), net::MacAddress::from_index(2),
      net::Ipv4Address::from_octets(10, 1, 0, 1), net::Ipv4Address::from_octets(10, 2, 0, 1),
      static_cast<std::uint16_t>(10000 + flow_id % 1000), 9, 500);
  p.flow_id = flow_id;
  p.seq_in_flow = seq;
  return p;
}

bool has_violation(const verify::InvariantRegistry& reg, const std::string& name) {
  for (const auto& v : reg.violations()) {
    if (v.invariant == name) return true;
  }
  return false;
}

sim::SimTime ms(long long v) { return sim::SimTime::milliseconds(v); }

}  // namespace

// The acceptance check for the whole layer: a deliberately broken buffer
// lifecycle (double-release of a buffer_id) must be detected and named.
TEST(InvariantRegistry, DetectsBufferIdDoubleRelease) {
  verify::InvariantRegistry reg;
  const net::Packet p = test_packet(1, 0);
  reg.on_packet_injected(p, ms(1));
  reg.on_buffer_store(42, p, /*new_unit=*/true, /*flow_granularity=*/false, ms(2));
  reg.on_buffer_release(42, p, ms(3));
  reg.on_buffer_unit_retired(42, ms(3));
  // A buggy manager hands the same buffer_id out again.
  reg.on_buffer_release(42, p, ms(4));
  EXPECT_FALSE(reg.ok());
  EXPECT_TRUE(has_violation(reg, "buffer-double-release")) << reg.report();
}

TEST(InvariantRegistry, DetectsUnitDoubleRetireAndLeak) {
  verify::InvariantRegistry reg;
  const net::Packet p = test_packet(2, 0);
  reg.on_buffer_store(7, p, true, true, ms(1));
  // Retiring a unit that still holds a packet is a leak.
  reg.on_buffer_unit_retired(7, ms(2));
  EXPECT_TRUE(has_violation(reg, "buffer-unit-leak")) << reg.report();
  // Retiring it again is a double retire.
  reg.on_buffer_unit_retired(7, ms(3));
  EXPECT_TRUE(has_violation(reg, "buffer-unit-double-retire")) << reg.report();
}

TEST(InvariantRegistry, DetectsFlowIdInstability) {
  verify::InvariantRegistry reg;
  const net::Packet a = test_packet(3, 0);
  const net::Packet b = test_packet(4, 0);  // different 5-tuple (src port differs)
  reg.on_buffer_store(9, a, /*new_unit=*/true, /*flow_granularity=*/true, ms(1));
  reg.on_buffer_store(9, b, /*new_unit=*/false, /*flow_granularity=*/true, ms(2));
  EXPECT_TRUE(has_violation(reg, "flow-buffer-id-unstable")) << reg.report();
}

TEST(InvariantRegistry, DetectsDuplicateAndSpuriousDelivery) {
  verify::InvariantRegistry reg;
  const net::Packet p = test_packet(5, 0);
  reg.on_packet_delivered(p, ms(1));
  EXPECT_TRUE(has_violation(reg, "spurious-delivery"));
  reg.on_packet_injected(p, ms(2));
  reg.on_packet_delivered(p, ms(3));
  EXPECT_TRUE(has_violation(reg, "duplicate-delivery")) << reg.report();
}

TEST(InvariantRegistry, FinalizeFlagsUnaccountedAndUndeliveredPayloads) {
  verify::InvariantRegistry vanished;
  vanished.on_packet_injected(test_packet(6, 0), ms(1));
  vanished.finalize(/*expect_all_delivered=*/false);
  EXPECT_TRUE(has_violation(vanished, "conservation")) << vanished.report();

  verify::InvariantRegistry dropped;
  const net::Packet p = test_packet(7, 0);
  dropped.on_packet_injected(p, ms(1));
  dropped.on_packet_dropped(p, "egress-queue", ms(2));
  dropped.finalize(/*expect_all_delivered=*/false);
  EXPECT_TRUE(dropped.ok()) << dropped.report();  // accounted, lenient mode

  verify::InvariantRegistry strict;
  strict.on_packet_injected(p, ms(1));
  strict.on_packet_dropped(p, "egress-queue", ms(2));
  strict.finalize(/*expect_all_delivered=*/true);
  EXPECT_TRUE(has_violation(strict, "undelivered")) << strict.report();
}

TEST(InvariantRegistry, DetectsUnpairedResponsesAndRulesWithoutPackets) {
  verify::InvariantRegistry reg;
  const net::Packet p = test_packet(8, 0);

  of::FlowMod fm;
  fm.xid = 99;  // no packet_in ever used this xid
  fm.command = of::FlowModCommand::Add;
  fm.match = of::Match::exact_from(p, 1);
  reg.on_control_message(/*to_controller=*/false, fm, ms(1));
  EXPECT_TRUE(has_violation(reg, "unpaired-flow-mod"));
  EXPECT_TRUE(has_violation(reg, "rule-without-packet")) << reg.report();

  of::PacketOut po;
  po.xid = 100;
  reg.on_control_message(false, po, ms(2));
  EXPECT_TRUE(has_violation(reg, "unpaired-packet-out"));
}

TEST(InvariantRegistry, AcceptsPairedExchange) {
  verify::InvariantRegistry reg;
  const net::Packet p = test_packet(9, 0);
  reg.on_packet_injected(p, ms(1));
  reg.on_packet_in_sent(5, p, of::kNoBuffer, ms(2));

  of::PacketIn pi;
  pi.xid = 5;
  pi.buffer_id = of::kNoBuffer;
  pi.total_len = static_cast<std::uint16_t>(p.frame_size);
  pi.in_port = 1;
  pi.data = p.serialize(p.frame_size);
  reg.on_control_message(true, pi, ms(3));

  of::FlowMod fm;
  fm.xid = 5;
  fm.command = of::FlowModCommand::Add;
  fm.match = of::Match::exact_from(p, 1);
  reg.on_control_message(false, fm, ms(4));

  of::PacketOut po;
  po.xid = 5;
  reg.on_control_message(false, po, ms(5));

  reg.on_packet_delivered(p, ms(6));
  reg.finalize(true);
  EXPECT_TRUE(reg.ok()) << reg.report();
}

TEST(InvariantRegistry, DetectsPacketInXidReuse) {
  verify::InvariantRegistry reg;
  reg.on_packet_in_sent(11, test_packet(10, 0), of::kNoBuffer, ms(1));
  reg.on_packet_in_sent(11, test_packet(10, 1), of::kNoBuffer, ms(2));
  EXPECT_TRUE(has_violation(reg, "packet-in-xid-reuse")) << reg.report();
}

TEST(InvariantRegistry, DetectsCaptureTimeRegression) {
  verify::InvariantRegistry reg;
  reg.on_control_message(true, of::Hello{1}, ms(2));
  reg.on_control_message(true, of::Hello{2}, ms(1));
  EXPECT_TRUE(has_violation(reg, "capture-time-regression")) << reg.report();
}

// --- TeeObserver ----------------------------------------------------------

// Logs every hook it receives as (side, hook, one value packing its
// arguments, time) into a log shared by both sides of a tee.
struct HookCall {
  char side;
  std::string hook;
  std::uint64_t arg;
  sim::SimTime now;
  bool operator==(const HookCall& o) const {
    return side == o.side && hook == o.hook && arg == o.arg && now == o.now;
  }
};

class RecordingObserver final : public verify::InvariantObserver {
 public:
  RecordingObserver(char side, std::vector<HookCall>& log) : side_(side), log_(log) {}

  void on_packet_injected(const net::Packet& p, sim::SimTime now) override {
    add("injected", p.flow_id, now);
  }
  void on_packet_delivered(const net::Packet& p, sim::SimTime now) override {
    add("delivered", p.flow_id, now);
  }
  void on_packet_dropped(const net::Packet& p, const char* where, sim::SimTime now) override {
    add(std::string("dropped:") + where, p.flow_id, now);
  }
  void on_buffer_store(std::uint32_t id, const net::Packet&, bool new_unit, bool flow,
                       sim::SimTime now) override {
    add("store", id * 4u + (new_unit ? 2u : 0u) + (flow ? 1u : 0u), now);
  }
  void on_buffer_release(std::uint32_t id, const net::Packet&, sim::SimTime now) override {
    add("release", id, now);
  }
  void on_buffer_expire(std::uint32_t id, const net::Packet&, sim::SimTime now) override {
    add("expire", id, now);
  }
  void on_buffer_unit_retired(std::uint32_t id, sim::SimTime now) override {
    add("retired", id, now);
  }
  void on_packet_in_sent(std::uint32_t xid, const net::Packet&, std::uint32_t buffer_id,
                         sim::SimTime now) override {
    add("pkt_in_sent", std::uint64_t{xid} << 32 | buffer_id, now);
  }
  void on_pkt_in_dropped(std::uint32_t xid, std::uint32_t buffer_id, sim::SimTime now) override {
    add("pkt_in_dropped", std::uint64_t{xid} << 32 | buffer_id, now);
  }
  void on_control_message(bool up, const of::OfMessage& msg, sim::SimTime now) override {
    add(up ? "control:up" : "control:down", std::get<of::PacketIn>(msg).xid, now);
  }
  void on_channel_fault(bool up, const of::OfMessage& msg, of::FaultKind kind,
                        sim::SimTime now) override {
    add(up ? "fault:up" : "fault:down",
        std::get<of::PacketIn>(msg).xid * 8u + static_cast<unsigned>(kind), now);
  }
  void on_mmu_admit(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                    std::uint64_t queue_after, std::uint64_t pool_after,
                    sim::SimTime now) override {
    add("mmu_admit", queue + native * 10 + cells * 100 + queue_after * 1000 + pool_after * 10000,
        now);
  }
  void on_mmu_release(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                      std::uint64_t queue_after, std::uint64_t pool_after,
                      sim::SimTime now) override {
    add("mmu_release",
        queue + native * 10 + cells * 100 + queue_after * 1000 + pool_after * 10000, now);
  }

 private:
  void add(std::string hook, std::uint64_t arg, sim::SimTime now) {
    log_.push_back(HookCall{side_, std::move(hook), arg, now});
  }
  char side_;
  std::vector<HookCall>& log_;
};

// Every hook defaults to a no-op, so a tee that forgot to forward one would
// fail silently. Drive each of the 13 hooks once and require both sides to
// see all of them, in order, with their arguments.
TEST(TeeObserver, ForwardsEveryHookToBothSidesInOrder) {
  std::vector<HookCall> log;
  RecordingObserver a{'a', log};
  RecordingObserver b{'b', log};
  verify::TeeObserver tee{a, b};
  verify::InvariantObserver& obs = tee;

  const net::Packet p = test_packet(21, 0);
  of::PacketIn packet_in;
  packet_in.xid = 77;
  const of::OfMessage pi = packet_in;
  obs.on_packet_injected(p, ms(1));
  obs.on_packet_delivered(p, ms(2));
  obs.on_packet_dropped(p, "egress-queue", ms(3));
  obs.on_buffer_store(5, p, /*new_unit=*/true, /*flow_granularity=*/false, ms(4));
  obs.on_buffer_release(6, p, ms(5));
  obs.on_buffer_expire(7, p, ms(6));
  obs.on_buffer_unit_retired(8, ms(7));
  obs.on_packet_in_sent(9, p, 10, ms(8));
  obs.on_pkt_in_dropped(11, 12, ms(9));
  obs.on_control_message(true, pi, ms(10));
  obs.on_channel_fault(false, pi, of::FaultKind::Duplicate, ms(11));
  obs.on_mmu_admit(1, 2, 3, 4, 5, ms(12));
  obs.on_mmu_release(6, 7, 8, 9, 1, ms(13));

  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"injected", 21},
      {"delivered", 21},
      {"dropped:egress-queue", 21},
      {"store", 5 * 4 + 2},
      {"release", 6},
      {"expire", 7},
      {"retired", 8},
      {"pkt_in_sent", std::uint64_t{9} << 32 | 10},
      {"pkt_in_dropped", std::uint64_t{11} << 32 | 12},
      {"control:up", 77},
      {"fault:down", 77 * 8 + static_cast<unsigned>(of::FaultKind::Duplicate)},
      {"mmu_admit", 1 + 20 + 300 + 4000 + 50000},
      {"mmu_release", 6 + 70 + 800 + 9000 + 10000},
  };
  ASSERT_EQ(expected.size(), 13u);
  std::vector<HookCall> want;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    for (const char side : {'a', 'b'}) {
      want.push_back(HookCall{side, expected[i].first, expected[i].second,
                              ms(static_cast<long long>(i) + 1)});
    }
  }
  ASSERT_EQ(log.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(log[i] == want[i]) << "call " << i << ": got " << log[i].side << ' '
                                   << log[i].hook << ", want " << want[i].side << ' '
                                   << want[i].hook;
  }
}

TEST(TeeObserver, JoinTeesOnlyWhenBothSidesAreSet) {
  std::vector<HookCall> log;
  RecordingObserver a{'a', log};
  RecordingObserver b{'b', log};
  std::unique_ptr<verify::TeeObserver> tee;
  EXPECT_EQ(verify::join(nullptr, nullptr, tee), nullptr);
  EXPECT_EQ(verify::join(&a, nullptr, tee), &a);
  EXPECT_EQ(verify::join(nullptr, &b, tee), &b);
  EXPECT_EQ(tee, nullptr);
  verify::InvariantObserver* both = verify::join(&a, &b, tee);
  ASSERT_NE(tee, nullptr);
  EXPECT_EQ(both, tee.get());
  both->on_buffer_unit_retired(3, ms(1));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].side, 'a');
  EXPECT_EQ(log[1].side, 'b');
}

// End-to-end: a healthy experiment run under every mechanism produces a
// non-trivial event stream and zero violations.
TEST(InvariantRegistryEndToEnd, CleanRunSatisfiesEveryInvariant) {
  for (const auto mode : {sw::BufferMode::NoBuffer, sw::BufferMode::PacketGranularity,
                          sw::BufferMode::FlowGranularity}) {
    verify::InvariantRegistry reg;
    core::ExperimentConfig cfg;
    cfg.mode = mode;
    cfg.buffer_capacity = 64;
    cfg.rate_mbps = 30.0;
    cfg.frame_size = 600;
    cfg.n_flows = 40;
    cfg.packets_per_flow = 3;
    cfg.seed = 42;
    cfg.observer = &reg;
    const auto r = core::run_experiment(cfg);
    reg.finalize(r.drained);
    EXPECT_TRUE(r.drained) << sw::buffer_mode_name(mode);
    EXPECT_GT(reg.events_observed(), 0u) << sw::buffer_mode_name(mode);
    EXPECT_TRUE(reg.ok()) << sw::buffer_mode_name(mode) << ": " << reg.report();
  }
}

// Determinism regression: two runs with the same seed must produce
// byte-identical control-channel traces (timestamps, direction, types, xids,
// wire sizes) for every buffer mode.
class DeterminismTest : public ::testing::TestWithParam<sw::BufferMode> {};

TEST_P(DeterminismTest, SameSeedSameCaptureTrace) {
  auto run = [this](of::ChannelCapture& capture) {
    core::ExperimentConfig cfg;
    cfg.mode = GetParam();
    cfg.buffer_capacity = 32;
    cfg.rate_mbps = 40.0;
    cfg.frame_size = 400;
    cfg.n_flows = 30;
    cfg.packets_per_flow = 2;
    cfg.seed = 1234;
    cfg.capture = &capture;
    return core::run_experiment(cfg);
  };
  of::ChannelCapture first;
  of::ChannelCapture second;
  const auto r1 = run(first);
  const auto r2 = run(second);

  EXPECT_EQ(r1.packets_delivered, r2.packets_delivered);
  EXPECT_EQ(r1.pkt_ins_sent, r2.pkt_ins_sent);
  const auto& a = first.records();
  const auto& b = second.records();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].timestamp.ns(), b[i].timestamp.ns()) << "record " << i;
    ASSERT_EQ(a[i].direction, b[i].direction) << "record " << i;
    ASSERT_EQ(a[i].type, b[i].type) << "record " << i;
    ASSERT_EQ(a[i].xid, b[i].xid) << "record " << i;
    ASSERT_EQ(a[i].wire_bytes, b[i].wire_bytes) << "record " << i;
    ASSERT_EQ(a[i].summary, b[i].summary) << "record " << i;
  }
}

// Satellite of the fault plane: fault injection must be just as
// deterministic as the fault-free path — same seed and same FaultProfile
// produce byte-identical captures and identical fault decisions.
TEST_P(DeterminismTest, SameSeedSameFaultDecisions) {
  auto run = [this](of::ChannelCapture& capture) {
    core::ExperimentConfig cfg;
    cfg.mode = GetParam();
    cfg.buffer_capacity = 32;
    cfg.rate_mbps = 40.0;
    cfg.frame_size = 400;
    cfg.n_flows = 30;
    cfg.packets_per_flow = 2;
    cfg.seed = 1234;
    cfg.capture = &capture;
    cfg.testbed.fault_profile.loss_to_controller = 0.08;
    cfg.testbed.fault_profile.loss_to_switch = 0.08;
    cfg.testbed.fault_profile.duplicate_to_controller = 0.04;
    cfg.testbed.fault_profile.duplicate_to_switch = 0.04;
    cfg.testbed.fault_profile.max_extra_delay = sim::SimTime::microseconds(500);
    return core::run_experiment(cfg);
  };
  of::ChannelCapture first;
  of::ChannelCapture second;
  const auto r1 = run(first);
  const auto r2 = run(second);

  // Identical fault decisions...
  EXPECT_EQ(r1.channel_lost_msgs, r2.channel_lost_msgs);
  EXPECT_EQ(r1.channel_duplicated_msgs, r2.channel_duplicated_msgs);
  EXPECT_GT(r1.channel_lost_msgs + r1.channel_duplicated_msgs, 0u)
      << "fault profile injected nothing; the regression is vacuous";
  EXPECT_EQ(r1.packets_delivered, r2.packets_delivered);
  EXPECT_EQ(r1.resend_pkt_ins, r2.resend_pkt_ins);
  // ...and byte-identical captures.
  const auto& a = first.records();
  const auto& b = second.records();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].timestamp.ns(), b[i].timestamp.ns()) << "record " << i;
    ASSERT_EQ(a[i].direction, b[i].direction) << "record " << i;
    ASSERT_EQ(a[i].type, b[i].type) << "record " << i;
    ASSERT_EQ(a[i].xid, b[i].xid) << "record " << i;
    ASSERT_EQ(a[i].wire_bytes, b[i].wire_bytes) << "record " << i;
    ASSERT_EQ(a[i].summary, b[i].summary) << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DeterminismTest,
                         ::testing::Values(sw::BufferMode::NoBuffer,
                                           sw::BufferMode::PacketGranularity,
                                           sw::BufferMode::FlowGranularity),
                         [](const auto& info) {
                           return std::string(sw::buffer_mode_name(info.param)) == "no-buffer"
                                      ? "NoBuffer"
                                      : (info.param == sw::BufferMode::PacketGranularity
                                             ? "PacketGranularity"
                                             : "FlowGranularity");
                         });

TEST(ScenarioGen, SamplingIsDeterministic) {
  const auto a = verify::sample_scenario(5);
  const auto b = verify::sample_scenario(5);
  EXPECT_EQ(a.describe(), b.describe());
  const auto c = verify::sample_scenario(6);
  EXPECT_NE(a.describe(), c.describe());
}

// Pinned seed -> scenario mappings. Each seed below drew a fabric dimension
// that has since been retired, and each has telemetry and MMU draws after
// it. The retired draws are still consumed, so these later draws keep their
// values; dropping the retired draws would shift them and fail this test.
TEST(ScenarioGen, RetiredDrawsKeepSeedMappings) {
  const std::pair<std::uint64_t, std::string> pinned[] = {
      {38,
       "seed=38 rate=85.5208Mbps frame=687 flows=21x1 order=seq batch=4 tcp=1"
       " buf_cap=32 table_cap=4096 piggyback=0 drop_p=0.0739247 poll=0 ns"
       " chan_loss=0.0935001/0.181048 chan_dup=0 chan_jitter=0 ns outage=0 ns+0 ns"
       " echo=0 ns fail_mode=fail-secure fabric=leaf-spine fabric_sw=8"
       " fabric_seed=3617245441222915437 fabric_pattern=0 fabric_install=per-hop"
       " telemetry=on int_depth=8 sample_period=1 mmu=static pool_cells=2048 alpha=0.5"},
      {131,
       "seed=131 rate=63.8576Mbps frame=240 flows=23x3 order=seq batch=6 tcp=1"
       " buf_cap=32 table_cap=20 piggyback=0 drop_p=0 poll=0 ns chan_loss=0/0"
       " chan_dup=0.0591531 chan_jitter=0 ns outage=0 ns+0 ns echo=143 ms"
       " fail_mode=fail-secure fabric=fat-tree-k2 fabric_sw=7"
       " fabric_seed=8609009961510795924 fabric_pattern=0 fabric_install=per-hop"
       " telemetry=on int_depth=7 sample_period=4 mmu=delay-driven pool_cells=8192"
       " alpha=2"},
      {275,
       "seed=275 rate=41.267Mbps frame=226 flows=85x6 order=seq batch=6 tcp=1"
       " buf_cap=8 table_cap=4096 piggyback=0 drop_p=0 poll=0 ns"
       " chan_loss=0.0943561/0.10174 chan_dup=0 chan_jitter=0 ns outage=0 ns+0 ns"
       " echo=0 ns fail_mode=fail-secure fabric=fat-tree-k2 fabric_sw=7"
       " fabric_seed=17761827859857266535 fabric_pattern=2 fabric_install=per-hop"
       " link_flap=0.1171s/0.0177358s link_fault_seed=6370483821483955826 telemetry=on"
       " int_depth=5 sample_period=4 mmu=delay-driven pool_cells=8192 alpha=2"},
  };
  for (const auto& [seed, expected] : pinned) {
    EXPECT_EQ(verify::sample_scenario(seed).describe(), expected) << "seed " << seed;
  }
}


TEST(ScenarioFuzz, SmokeSeedsPassAllInvariants) {
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    const auto outcome = verify::run_scenario(verify::sample_scenario(seed));
    std::string detail = outcome.scenario.describe();
    for (const auto& f : outcome.failures) detail += "\n  " + f;
    EXPECT_TRUE(outcome.ok()) << detail;
  }
}
