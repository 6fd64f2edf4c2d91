// Unit tests for the controller: MAC learning, flood vs forward decisions,
// flow_mod parameters, buffer_id piggybacking, response ordering, echo
// handling, and per-message-size processing costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "controller/controller.hpp"
#include "net/link.hpp"
#include "openflow/channel.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace sdnbuf::ctrl {
namespace {

net::Packet flow_packet(std::uint32_t flow, std::uint16_t src_mac_idx = 1,
                        std::uint16_t dst_mac_idx = 2) {
  auto p = net::make_udp_packet(net::MacAddress::from_index(src_mac_idx),
                                net::MacAddress::from_index(dst_mac_idx),
                                net::Ipv4Address{0x0a010001u + flow},
                                net::Ipv4Address::from_octets(10, 2, 0, 1),
                                static_cast<std::uint16_t>(10000 + flow), 9, 1000);
  p.flow_id = flow;
  return p;
}

of::PacketIn make_packet_in(const net::Packet& p, std::uint16_t in_port, std::uint32_t buffer_id,
                            std::size_t data_bytes, std::uint32_t xid) {
  of::PacketIn pi;
  pi.xid = xid;
  pi.buffer_id = buffer_id;
  pi.total_len = static_cast<std::uint16_t>(p.frame_size);
  pi.in_port = in_port;
  pi.data = p.serialize(data_bytes);
  return pi;
}

struct ControllerTest : ::testing::Test {
  sim::Simulator sim;
  net::DuplexLink link{sim, "ctl", 1000e6, sim::SimTime::microseconds(250)};
  of::Channel channel{sim, link.forward(), link.reverse()};
  std::vector<of::OfMessage> to_switch;

  std::unique_ptr<Controller> made;

  Controller& make(ControllerConfig config = {}) {
    made = std::make_unique<Controller>(sim, std::move(config), 42);
    made->connect(channel);
    channel.set_switch_handler(
        [this](const of::OfMessage& m, std::size_t) { to_switch.push_back(m); });
    return *made;
  }
};

TEST_F(ControllerTest, UnknownDestinationFloods) {
  Controller& c = make();
  channel.send_from_switch(make_packet_in(flow_packet(0), 1, of::kNoBuffer, 1000, 5));
  sim.run();
  ASSERT_EQ(to_switch.size(), 1u);
  const auto& po = std::get<of::PacketOut>(to_switch[0]);
  ASSERT_EQ(po.actions.size(), 1u);
  EXPECT_EQ(std::get<of::OutputAction>(po.actions[0]).port, of::kPortFlood);
  EXPECT_EQ(po.xid, 5u);
  EXPECT_FALSE(po.data.empty());  // no-buffer: the frame travels back
  EXPECT_EQ(c.counters().floods, 1u);
  EXPECT_EQ(c.counters().flow_mods_sent, 0u);  // no rule for unknown dst
}

TEST_F(ControllerTest, LearnsSourceMacFromPacketIn) {
  Controller& c = make();
  channel.send_from_switch(make_packet_in(flow_packet(0, 1, 2), 3, of::kNoBuffer, 1000, 1));
  sim.run();
  const auto port = c.lookup_mac(net::MacAddress::from_index(1));
  ASSERT_TRUE(port.has_value());
  EXPECT_EQ(*port, 3);
  EXPECT_EQ(c.mac_table_size(), 1u);
}

TEST_F(ControllerTest, KnownDestinationInstallsRuleAndForwards) {
  Controller& c = make();
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(7), 1, of::kNoBuffer, 1000, 9));
  sim.run();
  ASSERT_EQ(to_switch.size(), 2u);
  const auto& fm = std::get<of::FlowMod>(to_switch[0]);  // flow_mod first
  EXPECT_EQ(fm.command, of::FlowModCommand::Add);
  EXPECT_EQ(fm.idle_timeout_s, 5);
  EXPECT_EQ(fm.priority, 100);
  EXPECT_EQ(fm.xid, 9u);
  EXPECT_EQ(fm.buffer_id, of::kNoBuffer);
  EXPECT_TRUE(fm.flags & of::kFlowModSendFlowRem);
  // The rule matches exactly the miss-match packet.
  EXPECT_TRUE(fm.match.matches(flow_packet(7), 1));
  EXPECT_FALSE(fm.match.matches(flow_packet(8), 1));
  const auto& po = std::get<of::PacketOut>(to_switch[1]);
  EXPECT_EQ(std::get<of::OutputAction>(po.actions[0]).port, 2);
  EXPECT_EQ(po.data.size(), 1000u);
}

TEST_F(ControllerTest, PiggybackPutsBufferIdInFlowMod) {
  ControllerConfig piggy_config;
  piggy_config.piggyback_buffer_id = true;
  Controller& c = make(std::move(piggy_config));
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(7), 1, 1234, 128, 9));
  sim.run();
  ASSERT_EQ(to_switch.size(), 1u);  // single message: flow_mod carries the id
  const auto& fm = std::get<of::FlowMod>(to_switch[0]);
  EXPECT_EQ(fm.buffer_id, 1234u);
  EXPECT_EQ(c.counters().pkt_outs_sent, 0u);
}

TEST_F(ControllerTest, NoPiggybackSendsFlowModThenPacketOut) {
  Controller& c = make();  // piggyback defaults off (Algorithm 2 shape)
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(7), 1, 1234, 128, 9));
  sim.run();
  ASSERT_EQ(to_switch.size(), 2u);
  const auto& fm = std::get<of::FlowMod>(to_switch[0]);
  EXPECT_EQ(fm.buffer_id, of::kNoBuffer);
  const auto& po = std::get<of::PacketOut>(to_switch[1]);
  EXPECT_EQ(po.buffer_id, 1234u);
  EXPECT_TRUE(po.data.empty());  // buffered: only the reference travels
}

TEST_F(ControllerTest, InstallRulesDisabledSendsOnlyPacketOut) {
  ControllerConfig config;
  config.install_rules = false;
  Controller& c = make(std::move(config));
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(1), 1, of::kNoBuffer, 1000, 2));
  sim.run();
  ASSERT_EQ(to_switch.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<of::PacketOut>(to_switch[0]));
}

TEST_F(ControllerTest, EchoRequestAnswered) {
  make();
  channel.send_from_switch(of::EchoRequest{77});
  sim.run();
  ASSERT_EQ(to_switch.size(), 1u);
  EXPECT_EQ(std::get<of::EchoReply>(to_switch[0]).xid, 77u);
}

TEST_F(ControllerTest, FlowRemovedCounted) {
  Controller& c = make();
  channel.send_from_switch(of::FlowRemoved{});
  sim.run();
  EXPECT_EQ(c.counters().flow_removed_seen, 1u);
}

TEST_F(ControllerTest, MulticastSourceNotLearned) {
  Controller& c = make();
  auto p = flow_packet(0);
  p.eth.src = net::MacAddress::broadcast();
  channel.send_from_switch(make_packet_in(p, 1, of::kNoBuffer, 1000, 1));
  sim.run();
  EXPECT_EQ(c.mac_table_size(), 0u);
}

TEST_F(ControllerTest, GarbagePacketInCountsParseFailure) {
  Controller& c = make();
  of::PacketIn pi;
  pi.data.assign(64, 0);
  pi.data[12] = 0x08;  // claims IPv4 but the header is garbage
  channel.send_from_switch(pi);
  sim.run();
  EXPECT_EQ(c.counters().parse_failures, 1u);
  EXPECT_TRUE(to_switch.empty());
}

TEST_F(ControllerTest, FullFramePacketInCostsMoreCpu) {
  Controller& c = make();
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(0), 1, of::kNoBuffer, 1000, 1));
  sim.run();
  const auto busy_full = c.cpu().busy_time();
  c.cpu().reset_stats();
  channel.send_from_switch(make_packet_in(flow_packet(1), 1, 42, 128, 2));
  sim.run();
  const auto busy_buffered = c.cpu().busy_time();
  // The per-byte parse/encode costs make the full-frame request much dearer.
  EXPECT_GT(busy_full.ns(), busy_buffered.ns() * 2);
}

TEST_F(ControllerTest, CountersTrackRequestKinds) {
  Controller& c = make();
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(0), 1, of::kNoBuffer, 1000, 1));
  auto resend = make_packet_in(flow_packet(1), 1, 42, 128, 2);
  resend.reason = of::PacketInReason::FlowResend;
  channel.send_from_switch(resend);
  sim.run();
  EXPECT_EQ(c.counters().pkt_ins_handled, 2u);
  EXPECT_EQ(c.counters().full_frame_pkt_ins, 1u);
  EXPECT_EQ(c.counters().resend_pkt_ins, 1u);
}

TEST_F(ControllerTest, SecondFlowSameHostsReusesLearning) {
  Controller& c = make();
  c.learn(net::MacAddress::from_index(2), 2);
  channel.send_from_switch(make_packet_in(flow_packet(0), 1, of::kNoBuffer, 1000, 1));
  channel.send_from_switch(make_packet_in(flow_packet(1), 1, of::kNoBuffer, 1000, 2));
  sim.run();
  // Each flow gets its own rule + packet_out: micro-flow granularity.
  EXPECT_EQ(c.counters().flow_mods_sent, 2u);
  EXPECT_EQ(c.counters().pkt_outs_sent, 2u);
  EXPECT_EQ(c.mac_table_size(), 2u);
}

// --- rule book (topology mode) ---
//
// A scripted leaf-spine route-repair run against stub switches: installs
// (one of them repeated, so it refreshes in place), a FlowRemoved, a link
// down reported by both endpoints, more installs around the hole, the link
// coming back, and a switch re-handshake. The controller's rule counts are
// checked against a brute-force book rebuilt from the wire after every step,
// and the DeleteStrict sequence route repair emits is pinned.
struct RuleBookRun {
  sim::Simulator sim;
  topo::Topology topology = topo::make_leaf_spine(2, 3, 2);
  topo::Router router{topology, 7};
  std::vector<std::unique_ptr<net::DuplexLink>> links;
  std::vector<std::unique_ptr<of::Channel>> channels;
  std::unique_ptr<Controller> controller;

  struct Rule {
    std::uint64_t dpid = 0;
    of::Match match;
    std::uint16_t priority = 0;
    std::size_t link = 0;
  };
  std::vector<Rule> book;                  // brute-force copy, install order
  std::vector<std::string> deletes;        // DeleteStrict sequence, send order
  std::vector<std::pair<std::uint64_t, of::FlowMod>> adds;  // every Add sent
  std::uint32_t next_xid = 1;

  RuleBookRun() {
    ControllerConfig config;
    controller = std::make_unique<Controller>(sim, config, 42);
    controller->enable_topology_routing(router, RouteInstallMode::FullPathInstall);
    for (unsigned i = 0; i < topology.n_switches(); ++i) {
      links.push_back(std::make_unique<net::DuplexLink>(sim, "ctl" + std::to_string(i), 1000e6,
                                                        sim::SimTime::microseconds(250)));
      channels.push_back(std::make_unique<of::Channel>(sim, links.back()->forward(),
                                                       links.back()->reverse()));
      const std::uint64_t dpid = i + 1;
      controller->connect(*channels.back(), dpid);
      channels.back()->set_switch_handler([](const of::OfMessage&, std::size_t) {});
      channels.back()->set_tap([this, dpid](bool to_controller, const of::OfMessage& msg,
                                            std::size_t, sim::SimTime) {
        observe(dpid, to_controller, msg);
      });
    }
  }

  // The link a rule's first output port crosses on switch `dpid`, if any.
  std::optional<std::size_t> rule_link(std::uint64_t dpid, const of::ActionList& actions) const {
    for (const auto& a : actions) {
      const auto* out = std::get_if<of::OutputAction>(&a);
      if (out == nullptr) continue;
      const topo::NodeId sw = topology.switch_id(static_cast<unsigned>(dpid - 1));
      for (const auto& adj : topology.adjacency(sw)) {
        if (adj.port == out->port) return adj.link;
      }
      return std::nullopt;
    }
    return std::nullopt;
  }

  void erase(std::uint64_t dpid, const of::Match& match, std::uint16_t priority) {
    for (auto it = book.begin(); it != book.end(); ++it) {
      if (it->dpid == dpid && it->priority == priority && it->match == match) {
        book.erase(it);
        return;
      }
    }
  }

  void observe(std::uint64_t dpid, bool to_controller, const of::OfMessage& msg) {
    if (to_controller) {
      if (const auto* fr = std::get_if<of::FlowRemoved>(&msg)) erase(dpid, fr->match, fr->priority);
      if (std::holds_alternative<of::Hello>(msg)) {
        std::erase_if(book, [dpid](const Rule& r) { return r.dpid == dpid; });
      }
      return;
    }
    const auto* fm = std::get_if<of::FlowMod>(&msg);
    if (fm == nullptr) return;
    if (fm->command == of::FlowModCommand::DeleteStrict) {
      const of::Match& m = fm->match;
      deletes.push_back(std::to_string(dpid) + " in=" + std::to_string(m.in_port) + " " +
                        m.nw_src.to_string() + ">" + m.nw_dst.to_string() +
                        " tp=" + std::to_string(m.tp_src) + " prio=" +
                        std::to_string(fm->priority) + " wc=" + std::to_string(m.wildcards));
      erase(dpid, fm->match, fm->priority);
      return;
    }
    adds.emplace_back(dpid, *fm);
    const auto link = rule_link(dpid, fm->actions);
    if (!link) return;
    for (Rule& r : book) {
      if (r.dpid == dpid && r.priority == fm->priority && r.match == fm->match) {
        r.link = *link;
        return;
      }
    }
    book.push_back(Rule{dpid, fm->match, fm->priority, *link});
  }

  void check(const char* step) const {
    EXPECT_EQ(controller->installed_rule_count(), book.size()) << step;
    for (std::size_t l = 0; l < topology.n_links(); ++l) {
      const auto expected = static_cast<std::size_t>(
          std::count_if(book.begin(), book.end(), [l](const Rule& r) { return r.link == l; }));
      EXPECT_EQ(controller->installed_rules_on_link(l), expected) << step << " link " << l;
    }
  }

  // A miss at the leaf of host `src` for a flow towards host `dst`.
  void packet_in(unsigned src, unsigned dst, std::uint16_t sport) {
    const topo::Topology::Adjacency& att = topology.attachment(topology.host_id(src));
    const unsigned leaf = topology.index_of(att.peer);
    auto p = net::make_udp_packet(topo::Topology::host_mac(src), topo::Topology::host_mac(dst),
                                  topo::Topology::host_ip(src), topo::Topology::host_ip(dst),
                                  sport, 9, 1000);
    of::PacketIn pi = make_packet_in(p, att.peer_port, next_xid, 128, next_xid);
    ++next_xid;
    channels[leaf]->send_from_switch(pi);
  }

  void port_status(unsigned switch_index, std::uint16_t port, bool up) {
    of::PortStatus ps;
    ps.xid = next_xid++;
    ps.reason = up ? of::PortStatusReason::Add : of::PortStatusReason::Delete;
    ps.desc.port_no = port;
    ps.desc.link_down = !up;
    channels[switch_index]->send_from_switch(ps);
  }
};

TEST(ControllerRuleBook, RouteRepairDeletesMatchTheRecordedSequence) {
  RuleBookRun run;
  // Installs: every host towards two others, on several source ports so the
  // ECMP picks spread over both spines.
  for (unsigned src = 0; src < 6; ++src) {
    for (unsigned k = 1; k <= 2; ++k) {
      const unsigned dst = (src + 2 * k) % 6;
      run.packet_in(src, dst, static_cast<std::uint16_t>(20000 + 10 * src + k));
    }
  }
  run.packet_in(0, 2, 20001);  // the same flow again: refreshed in place
  run.sim.run();
  ASSERT_GT(run.book.size(), 20u);
  run.check("installs");

  // The switch reports one of the rules gone.
  const auto& [fr_dpid, fr_fm] = run.adds[3];
  of::FlowRemoved removed;
  removed.xid = run.next_xid++;
  removed.match = fr_fm.match;
  removed.priority = fr_fm.priority;
  run.channels[fr_dpid - 1]->send_from_switch(removed);
  run.sim.run();
  run.check("flow removed");

  // Leaf 0's uplink to spine 0 (leaf port 3, spine 0 = switch 3, port 1)
  // fails; both endpoints report it.
  run.port_status(0, 3, /*up=*/false);
  run.port_status(3, 1, /*up=*/false);
  run.sim.run();
  run.check("link down");
  EXPECT_GT(run.deletes.size(), 0u);

  for (unsigned src = 0; src < 6; ++src) {
    run.packet_in(src, (src + 3) % 6, static_cast<std::uint16_t>(30000 + src));
  }
  run.sim.run();
  run.check("reroutes");

  run.port_status(0, 3, /*up=*/true);
  run.port_status(3, 1, /*up=*/true);
  run.sim.run();
  run.check("link up");
  EXPECT_EQ(run.controller->installed_rule_count(), 0u);

  run.packet_in(1, 4, 40000);
  run.packet_in(2, 5, 40001);
  run.sim.run();
  run.check("after flush");
  run.channels[1]->send_from_switch(of::Hello{run.next_xid++});
  run.sim.run();
  run.check("re-handshake");

  // Recorded from the linear-scan rule book the indexed one replaced:
  // dpid, match in_port, nw_src>nw_dst, tp_src, priority, wildcards.
  const std::vector<std::string> expected = {
      "4 in=3 10.0.0.6>10.0.0.2 tp=20051 prio=100 wc=0",
      "4 in=2 10.0.0.4>10.0.0.2 tp=20032 prio=100 wc=0",
      "1 in=2 10.0.0.2>10.0.0.6 tp=20012 prio=100 wc=0",
      "5 in=1 10.0.0.1>10.0.0.3 tp=20001 prio=100 wc=0",
      "5 in=2 10.0.0.3>10.0.0.5 tp=20021 prio=100 wc=0",
      "5 in=3 10.0.0.5>10.0.0.1 tp=20041 prio=100 wc=0",
      "5 in=2 10.0.0.3>10.0.0.1 tp=20022 prio=100 wc=0",
      "5 in=3 10.0.0.5>10.0.0.3 tp=20042 prio=100 wc=0",
      "5 in=1 10.0.0.2>10.0.0.4 tp=20011 prio=100 wc=0",
      "4 in=2 10.0.0.4>10.0.0.6 tp=20031 prio=100 wc=0",
      "4 in=1 10.0.0.2>10.0.0.6 tp=20012 prio=100 wc=0",
      "5 in=3 10.0.0.6>10.0.0.4 tp=20052 prio=100 wc=0",
      "2 in=4 10.0.0.1>10.0.0.3 tp=20001 prio=100 wc=0",
      "3 in=4 10.0.0.3>10.0.0.5 tp=20021 prio=100 wc=0",
      "1 in=4 10.0.0.5>10.0.0.1 tp=20041 prio=100 wc=0",
      "3 in=4 10.0.0.1>10.0.0.5 tp=20002 prio=100 wc=0",
      "1 in=4 10.0.0.3>10.0.0.1 tp=20022 prio=100 wc=0",
      "2 in=4 10.0.0.5>10.0.0.3 tp=20042 prio=100 wc=0",
      "2 in=4 10.0.0.2>10.0.0.4 tp=20011 prio=100 wc=0",
      "3 in=3 10.0.0.4>10.0.0.6 tp=20031 prio=100 wc=0",
      "1 in=3 10.0.0.6>10.0.0.2 tp=20051 prio=100 wc=0",
      "3 in=3 10.0.0.2>10.0.0.6 tp=20012 prio=100 wc=0",
      "1 in=3 10.0.0.4>10.0.0.2 tp=20032 prio=100 wc=0",
      "2 in=4 10.0.0.6>10.0.0.4 tp=20052 prio=100 wc=0",
      "1 in=1 10.0.0.1>10.0.0.3 tp=20001 prio=100 wc=0",
      "2 in=1 10.0.0.3>10.0.0.5 tp=20021 prio=100 wc=0",
      "3 in=1 10.0.0.5>10.0.0.1 tp=20041 prio=100 wc=0",
      "2 in=1 10.0.0.3>10.0.0.1 tp=20022 prio=100 wc=0",
      "1 in=1 10.0.0.1>10.0.0.5 tp=20002 prio=100 wc=0",
      "3 in=1 10.0.0.5>10.0.0.3 tp=20042 prio=100 wc=0",
      "1 in=2 10.0.0.2>10.0.0.4 tp=20011 prio=100 wc=0",
      "2 in=2 10.0.0.4>10.0.0.6 tp=20031 prio=100 wc=0",
      "3 in=2 10.0.0.6>10.0.0.2 tp=20051 prio=100 wc=0",
      "2 in=2 10.0.0.4>10.0.0.2 tp=20032 prio=100 wc=0",
      "3 in=2 10.0.0.6>10.0.0.4 tp=20052 prio=100 wc=0",
      "5 in=1 10.0.0.1>10.0.0.4 tp=30000 prio=100 wc=0",
      "4 in=2 10.0.0.3>10.0.0.6 tp=30002 prio=100 wc=0",
      "5 in=3 10.0.0.5>10.0.0.2 tp=30004 prio=100 wc=0",
      "5 in=1 10.0.0.2>10.0.0.5 tp=30001 prio=100 wc=0",
      "5 in=2 10.0.0.4>10.0.0.1 tp=30003 prio=100 wc=0",
      "5 in=3 10.0.0.6>10.0.0.3 tp=30005 prio=100 wc=0",
      "2 in=4 10.0.0.1>10.0.0.4 tp=30000 prio=100 wc=0",
      "3 in=3 10.0.0.3>10.0.0.6 tp=30002 prio=100 wc=0",
      "1 in=4 10.0.0.5>10.0.0.2 tp=30004 prio=100 wc=0",
      "3 in=4 10.0.0.2>10.0.0.5 tp=30001 prio=100 wc=0",
      "1 in=4 10.0.0.4>10.0.0.1 tp=30003 prio=100 wc=0",
      "2 in=4 10.0.0.6>10.0.0.3 tp=30005 prio=100 wc=0",
      "1 in=1 10.0.0.1>10.0.0.4 tp=30000 prio=100 wc=0",
      "2 in=1 10.0.0.3>10.0.0.6 tp=30002 prio=100 wc=0",
      "3 in=1 10.0.0.5>10.0.0.2 tp=30004 prio=100 wc=0",
      "1 in=2 10.0.0.2>10.0.0.5 tp=30001 prio=100 wc=0",
      "2 in=2 10.0.0.4>10.0.0.1 tp=30003 prio=100 wc=0",
      "3 in=2 10.0.0.6>10.0.0.3 tp=30005 prio=100 wc=0",
  };
  EXPECT_EQ(run.deletes, expected);
}

}  // namespace
}  // namespace sdnbuf::ctrl
