#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <variant>

#include "core/fabric_testbed.hpp"
#include "host/traffic_matrix.hpp"
#include "net/link.hpp"
#include "obs/profiler.hpp"
#include "switchd/egress_scheduler.hpp"
#include "switchd/flow_buffer.hpp"
#include "switchd/mmu/mmu.hpp"
#include "switchd/packet_buffer.hpp"
#include "switchd/switch.hpp"

namespace perfbench {

namespace host = sdnbuf::host;
namespace obs = sdnbuf::obs;
namespace sw = sdnbuf::sw;

using Clock = std::chrono::steady_clock;

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  ingress += o.ingress;
  misses += o.misses;
  egress_drops += o.egress_drops;
  buffer_stores += o.buffer_stores;
  buffer_units += o.buffer_units;
  pkt_ins += o.pkt_ins;
  full_frame_pkt_ins += o.full_frame_pkt_ins;
  control_msgs += o.control_msgs;
  control_bytes += o.control_bytes;
  rule_adds += o.rule_adds;
  evictions += o.evictions;
  mmu_admits += o.mmu_admits;
  return *this;
}

// --- Recorder ---

std::uint32_t Recorder::keep_packet(const net::Packet& packet) {
  packets_.push_back(packet);
  return static_cast<std::uint32_t>(packets_.size() - 1);
}

void Recorder::on_packet_injected(const net::Packet& packet, sim::SimTime now) {
  if (inner_ != nullptr) inner_->on_packet_injected(packet, now);
  ++counts_.ingress;
  stamp(now);
  if (keep_) ops_.push_back({OpKind::Ingress, now, keep_packet(packet)});
}

void Recorder::on_packet_delivered(const net::Packet& packet, sim::SimTime now) {
  if (inner_ != nullptr) inner_->on_packet_delivered(packet, now);
  stamp(now);
}

void Recorder::on_packet_dropped(const net::Packet& packet, const char* where, sim::SimTime now) {
  if (inner_ != nullptr) inner_->on_packet_dropped(packet, where, now);
  if (std::string_view(where) == "egress-queue") ++counts_.egress_drops;
  stamp(now);
}

void Recorder::on_buffer_store(std::uint32_t buffer_id, const net::Packet& packet, bool new_unit,
                               bool flow_granularity, sim::SimTime now) {
  if (inner_ != nullptr) {
    inner_->on_buffer_store(buffer_id, packet, new_unit, flow_granularity, now);
  }
  ++counts_.buffer_stores;
  if (new_unit) ++counts_.buffer_units;
  // A packet joining an already-buffered flow missed the table without
  // raising a packet_in of its own.
  if (flow_granularity && !new_unit) ++counts_.misses;
  stamp(now);
  if (keep_) ops_.push_back({OpKind::Store, now, keep_packet(packet), buffer_id});
}

void Recorder::on_buffer_release(std::uint32_t buffer_id, const net::Packet& packet,
                                 sim::SimTime now) {
  if (inner_ != nullptr) inner_->on_buffer_release(buffer_id, packet, now);
  stamp(now);
  if (keep_) ops_.push_back({OpKind::Release, now, 0, buffer_id});
}

void Recorder::on_buffer_expire(std::uint32_t buffer_id, const net::Packet& packet,
                                sim::SimTime now) {
  if (inner_ != nullptr) inner_->on_buffer_expire(buffer_id, packet, now);
  stamp(now);
}

void Recorder::on_buffer_unit_retired(std::uint32_t buffer_id, sim::SimTime now) {
  if (inner_ != nullptr) inner_->on_buffer_unit_retired(buffer_id, now);
}

void Recorder::on_packet_in_sent(std::uint32_t xid, const net::Packet& packet,
                                 std::uint32_t buffer_id, sim::SimTime now) {
  if (inner_ != nullptr) inner_->on_packet_in_sent(xid, packet, buffer_id, now);
  if (keep_) pkt_in_keys_[xid] = packet.flow_key();
}

void Recorder::on_pkt_in_dropped(std::uint32_t xid, std::uint32_t buffer_id, sim::SimTime now) {
  if (inner_ != nullptr) inner_->on_pkt_in_dropped(xid, buffer_id, now);
}

void Recorder::on_control_message(bool to_controller, const of::OfMessage& msg,
                                  sim::SimTime now) {
  if (inner_ != nullptr) inner_->on_control_message(to_controller, msg, now);
  ++counts_.control_msgs;
  counts_.control_bytes += of::encoded_size(msg);
  stamp(now);
  if (const auto* pi = std::get_if<of::PacketIn>(&msg)) {
    ++counts_.pkt_ins;
    if (pi->buffer_id == of::kNoBuffer) ++counts_.full_frame_pkt_ins;
    if (pi->reason == of::PacketInReason::NoMatch) ++counts_.misses;
    if (keep_) {
      if (const auto it = pkt_in_keys_.find(pi->xid); it != pkt_in_keys_.end()) {
        in_ports_[it->second] = pi->in_port;
        pkt_in_keys_.erase(it);
      }
    }
  } else if (const auto* fm = std::get_if<of::FlowMod>(&msg)) {
    if (fm->command == of::FlowModCommand::Add) {
      ++counts_.rule_adds;
      if (keep_) {
        sw::FlowEntry e;
        e.match = fm->match;
        e.priority = fm->priority;
        e.actions = fm->actions;
        e.cookie = fm->cookie;
        e.idle_timeout_s = fm->idle_timeout_s;
        e.hard_timeout_s = fm->hard_timeout_s;
        e.flags = fm->flags;
        rules_.push_back(std::move(e));
        ops_.push_back({OpKind::RuleAdd, now, static_cast<std::uint32_t>(rules_.size() - 1)});
        const of::Match& m = fm->match;
        in_ports_[net::FlowKey{m.nw_src, m.nw_dst, m.tp_src, m.tp_dst, m.nw_proto}] = m.in_port;
      }
    }
  } else if (const auto* fr = std::get_if<of::FlowRemoved>(&msg)) {
    if (fr->reason == of::FlowRemovedReason::Eviction) ++counts_.evictions;
  }
  if (keep_) messages_.push_back(msg);
}

void Recorder::on_channel_fault(bool to_controller, const of::OfMessage& msg, of::FaultKind kind,
                                sim::SimTime now) {
  if (inner_ != nullptr) inner_->on_channel_fault(to_controller, msg, kind, now);
}

void Recorder::on_mmu_admit(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                            std::uint64_t queue_cells_after, std::uint64_t pool_cells_after,
                            sim::SimTime now) {
  if (inner_ != nullptr) {
    inner_->on_mmu_admit(queue, native, cells, queue_cells_after, pool_cells_after, now);
  }
  ++counts_.mmu_admits;
  if (keep_) ops_.push_back({OpKind::MmuAdmit, now, queue, 0, native, cells});
}

void Recorder::on_mmu_release(std::uint32_t queue, std::uint64_t native, std::uint64_t cells,
                              std::uint64_t queue_cells_after, std::uint64_t pool_cells_after,
                              sim::SimTime now) {
  if (inner_ != nullptr) {
    inner_->on_mmu_release(queue, native, cells, queue_cells_after, pool_cells_after, now);
  }
  if (keep_) ops_.push_back({OpKind::MmuRelease, now, queue, 0, native, cells});
}

std::uint16_t Recorder::in_port_of(const net::FlowKey& key) const {
  const auto it = in_ports_.find(key);
  return it == in_ports_.end() ? 1 : it->second;
}

namespace {

// --- spans ---

// Host time accumulated by one layer's spans. Every span pays two clock
// reads; `overhead_ns` (measured once per process on empty spans) is taken
// off each call so that cheap calls are not dominated by the clock.
struct Span {
  double ns = 0.0;
  std::uint64_t calls = 0;

  template <typename F>
  decltype(auto) operator()(F&& f) {
    const auto t0 = Clock::now();
    struct Close {
      Span& s;
      Clock::time_point t0;
      ~Close() {
        s.ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        ++s.calls;
      }
    } close{*this, t0};
    return f();
  }

  [[nodiscard]] double per_call(double overhead_ns) const {
    return calls == 0 ? 0.0 : std::max(0.0, ns / static_cast<double>(calls) - overhead_ns);
  }
};

double span_overhead_ns() {
  Span s;
  for (int i = 0; i < 200000; ++i) s([] {});
  return s.ns / static_cast<double>(s.calls);
}

struct Spans {
  Span event;  // one span per replayed batch; calls = events dispatched
  Span send, enqueue, lookup, add, store, release, admit, encode, decode;
};

// The switch configuration a recorder observed.
struct Station {
  std::unique_ptr<Recorder> recorder;
  sw::SwitchConfig config;
};

// --- traced experiments ---

struct TracedExperiment {
  RunOutcome outcome;
  std::vector<Station> stations;
  std::uint64_t events = 0;
  double controller_s = 0.0;  // profiler time under the controller's CPU station
};

double profiled_seconds(const obs::EventLoopProfiler& profiler, const std::string& tag) {
  for (const obs::EventLoopProfiler::Row& row : profiler.table()) {
    if (row.tag == tag) return row.total_s;
  }
  return 0.0;
}

TracedExperiment trace_single(const core::ExperimentConfig& config) {
  TracedExperiment t;
  Station st;
  st.recorder = std::make_unique<Recorder>(nullptr, true);
  st.config = config.testbed.switch_config;
  st.config.buffer_mode = config.mode;
  st.config.buffer_capacity = config.buffer_capacity;

  obs::EventLoopProfiler profiler;
  core::ExperimentConfig c = config;
  c.observer = st.recorder.get();
  c.profiler = &profiler;
  t.outcome = outcome_of(core::run_experiment(c));
  t.events = profiler.total_events();
  t.controller_s = profiled_seconds(profiler, config.testbed.controller_config.name + ":cpu");
  t.stations.push_back(std::move(st));
  return t;
}

// run_fabric_experiment's sequential open-loop path, driven here so that the
// profiler can sit on the fabric's simulator (run_fabric_experiment has no
// profiler hook). The traced fingerprint must equal that function's, which
// proves the two ran the same simulation.
TracedExperiment trace_fabric(const core::FabricExperimentConfig& config, bool lossy) {
  TracedExperiment t;
  core::FabricConfig fc = config.fabric;
  fc.topology = config.topology;
  fc.routing = config.routing;
  fc.seed = config.seed;
  fc.switch_config.buffer_mode = config.mode;
  fc.switch_config.buffer_capacity = config.buffer_capacity;
  for (unsigned i = 0; i < fc.topology.n_switches(); ++i) {
    Station st;
    st.recorder = std::make_unique<Recorder>(nullptr, true);
    st.config = fc.switch_config;
    fc.observers.push_back(st.recorder.get());
    t.stations.push_back(std::move(st));
  }

  core::FabricTestbed bed(fc);
  obs::EventLoopProfiler profiler;
  bed.sim().set_profile_sink(&profiler);
  bed.reset_statistics();

  host::TrafficMatrixConfig tm;
  tm.pattern = config.pattern;
  for (unsigned h = 0; h < bed.n_hosts(); ++h) {
    tm.host_macs.push_back(sdnbuf::topo::Topology::host_mac(h));
    tm.host_ips.push_back(sdnbuf::topo::Topology::host_ip(h));
  }
  tm.incast_target = config.incast_target;
  tm.incast_fanin = config.incast_fanin;
  tm.duration_s = config.duration_s;
  tm.flow_arrival_per_s = config.flow_arrival_per_s;
  tm.pareto_alpha = config.pareto_alpha;
  tm.min_packets = config.min_packets;
  tm.max_packets = config.max_packets;
  tm.in_flow_rate_mbps = config.in_flow_rate_mbps;
  tm.frame_size = config.frame_size;
  host::TrafficMatrixWorkload gen(
      bed.sim(), tm, config.seed * 7919u + 3,
      [&bed](unsigned src, const net::Packet& p) { bed.inject_from_host(src, p); });
  gen.start();

  const sim::SimTime gap =
      sim::transmission_time(config.frame_size, config.in_flow_rate_mbps * 1e6);
  const sim::SimTime horizon = bed.sim().now() + sim::SimTime::from_seconds(config.duration_s);
  const sim::SimTime emission_done =
      horizon + gap.scaled(1.5 * static_cast<double>(config.max_packets) + 1.0);
  const sim::SimTime deadline = emission_done + config.drain_timeout;
  while (bed.sim().now() < deadline &&
         (bed.sim().now() < emission_done || bed.total_delivered() < gen.packets_emitted())) {
    bed.sim().run_until(std::min(bed.sim().now() + sim::SimTime::milliseconds(20), deadline));
  }
  bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(50));
  bed.stop();
  bed.sim().run();

  core::FabricExperimentResult r;
  r.flows = gen.flows_started();
  r.packets_sent = gen.packets_emitted();
  r.packets_delivered = bed.total_delivered();
  r.duplicates = bed.total_duplicates();
  r.pkt_ins = bed.total_pkt_ins();
  const auto& cc = bed.controller().counters();
  r.full_frame_pkt_ins = cc.full_frame_pkt_ins;
  r.flow_mods = cc.flow_mods_sent;
  r.pkt_outs = cc.pkt_outs_sent;
  r.path_preinstalls = cc.path_preinstalls;
  r.unroutable_drops = cc.unroutable_drops;
  r.control_msgs = bed.total_control_msgs();
  r.control_bytes = bed.total_control_bytes();
  r.duration_s = (bed.sim().now() - bed.measurement_start()).sec();
  for (unsigned i = 0; i < bed.n_switches(); ++i) {
    r.buffer_units_expired += bed.switch_at(i).counters().buffer_units_expired;
    r.flow_samples += bed.switch_at(i).counters().flow_samples_sent;
    r.int_stamps += bed.switch_at(i).counters().int_stamps_applied;
  }
  r.mmu_rejected = bed.total_mmu_rejected();
  r.mmu_peak_pool_cells = bed.mmu_peak_pool_cells_sum();
  r.buffer_avg_units = bed.buffer_occupancy_mean_sum();
  r.buffer_max_units = static_cast<double>(bed.buffer_occupancy_max_sum());
  r.first_packet_ms = bed.first_packet_ms();
  r.delivered = bed.delivered_payloads();
  r.drained = r.packets_delivered == r.packets_sent && r.duplicates == 0;

  t.outcome = outcome_of(r, lossy);
  t.events = bed.sim().executed_events();
  t.controller_s = profiled_seconds(profiler, fc.controller_config.name + ":cpu");
  return t;
}

// --- replays ---

// Replays the event-core load: every observation timestamp of one
// experiment, dispatched on a standalone simulator in time order. Each fired
// event schedules the one kWindow places later, so about kWindow events are
// pending at any time, as in a small fabric's event queue.
void replay_events(const std::vector<Station>& stations, Span& span) {
  constexpr std::size_t kWindow = 64;
  std::vector<sim::SimTime> times;
  for (const Station& st : stations) {
    times.insert(times.end(), st.recorder->event_times().begin(), st.recorder->event_times().end());
  }
  std::sort(times.begin(), times.end());
  sim::Simulator s;
  struct Chain {
    sim::Simulator* s;
    const std::vector<sim::SimTime>* times;
    std::size_t next;
    void operator()() const {
      if (next < times->size()) s->schedule_at((*times)[next], Chain{s, times, next + kWindow});
    }
  };
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < std::min(kWindow, times.size()); ++i) {
    s.schedule_at(times[i], Chain{&s, &times, i + kWindow});
  }
  const std::size_t fired = s.run();
  span.ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  span.calls += fired;
}

// Replays one switch's recorded datapath inputs, in observation order,
// through standalone layer objects on a scratch simulator.
void replay_station(const Station& st, Spans& spans) {
  const Recorder& rec = *st.recorder;
  const sw::SwitchConfig& cfg = st.config;
  sim::Simulator scratch;

  net::Link link(scratch, "replay", 100e6, sim::SimTime::microseconds(20));
  struct Port {
    std::unique_ptr<net::Link> link;
    std::unique_ptr<sw::EgressScheduler> scheduler;
  };
  std::map<std::uint32_t, Port> ports;  // one egress port per destination address
  auto port_for = [&](const net::Packet& p) -> sw::EgressScheduler& {
    Port& port = ports[p.ip.dst.value()];
    if (!port.scheduler) {
      port.link = std::make_unique<net::Link>(scratch, "replay-egress", 100e6,
                                              sim::SimTime::microseconds(20));
      port.scheduler = std::make_unique<sw::EgressScheduler>(scratch, cfg.egress, *port.link,
                                                             [](const net::Packet&) {});
    }
    return *port.scheduler;
  };

  sw::FlowTable table(cfg.flow_table_capacity, cfg.eviction_policy, 1);
  std::optional<sw::PacketBufferManager> packet_buffer;
  std::optional<sw::FlowBufferManager> flow_buffer;
  if (cfg.buffer_mode == sw::BufferMode::PacketGranularity) {
    packet_buffer.emplace(scratch, cfg.buffer_capacity, cfg.costs.buffer_reclaim_delay);
  } else if (cfg.buffer_mode == sw::BufferMode::FlowGranularity) {
    flow_buffer.emplace(scratch, cfg.buffer_capacity, cfg.costs.buffer_reclaim_delay);
  }
  std::map<std::uint32_t, std::uint32_t> buffer_ids;  // recorded id -> replay id

  std::optional<sw::mmu::SharedMemoryMmu> mmu;
  struct Charge {
    std::uint64_t native = 0;
    std::uint64_t cells = 0;
  };
  std::vector<Charge> charged;
  if (cfg.mmu.enabled) {
    mmu.emplace(scratch, cfg.mmu, "replay");
    std::uint32_t max_queue = 0;
    for (const Recorder::Op& op : rec.ops()) {
      if (op.kind == Recorder::OpKind::MmuAdmit) max_queue = std::max(max_queue, op.index);
    }
    for (std::uint32_t q = 0; q <= max_queue; ++q) {
      (void)mmu->register_queue(sw::mmu::QueueKind::Egress, 0, q, cfg.egress.queue_limit_bytes);
    }
    charged.resize(max_queue + 1);
  }

  for (const Recorder::Op& op : rec.ops()) {
    if (op.at > scratch.now()) scratch.run_until(op.at);
    switch (op.kind) {
      case Recorder::OpKind::Ingress: {
        const net::Packet& p = rec.packets()[op.index];
        (void)spans.send([&] { return link.send_frame(p.frame_size, [] {}); });
        sw::EgressScheduler& sched = port_for(p);
        (void)spans.enqueue([&] { return sched.enqueue(p); });
        const std::uint16_t in_port = rec.in_port_of(p.flow_key());
        (void)spans.lookup([&] { return table.lookup(p, in_port, scratch.now()); });
        break;
      }
      case Recorder::OpKind::RuleAdd: {
        const sw::FlowEntry& e = rec.rules()[op.index];
        (void)spans.add([&] { return table.add(e, scratch.now()); });
        break;
      }
      case Recorder::OpKind::Store: {
        const net::Packet& p = rec.packets()[op.index];
        if (packet_buffer) {
          if (const auto id = spans.store([&] { return packet_buffer->store(p); })) {
            buffer_ids[op.buffer_id] = *id;
          }
        } else if (flow_buffer) {
          const std::uint16_t in_port = rec.in_port_of(p.flow_key());
          if (const auto r = spans.store([&] { return flow_buffer->store(p, in_port); })) {
            buffer_ids[op.buffer_id] = r->buffer_id;
          }
        }
        break;
      }
      case Recorder::OpKind::Release: {
        // A flow-granularity release reports every packet of the unit; the
        // unit is released once, on its first report.
        const auto it = buffer_ids.find(op.buffer_id);
        if (it == buffer_ids.end()) break;
        const std::uint32_t id = it->second;
        buffer_ids.erase(it);
        if (packet_buffer) {
          (void)spans.release([&] { return packet_buffer->release(id); });
        } else if (flow_buffer) {
          (void)spans.release([&] { return flow_buffer->release_all(id); });
        }
        break;
      }
      case Recorder::OpKind::MmuAdmit: {
        if (!mmu) break;
        const std::uint64_t bytes = op.cells * cfg.mmu.cell_bytes;
        if (spans.admit([&] { return mmu->try_admit(op.index, op.native, bytes); })) {
          charged[op.index].native += op.native;
          charged[op.index].cells += op.cells;
        }
        break;
      }
      case Recorder::OpKind::MmuRelease: {
        // Replay admissions can refuse what the real run admitted; release
        // only what this replay actually charged.
        if (!mmu || op.index >= charged.size()) break;
        Charge& c = charged[op.index];
        if (c.native < op.native || c.cells < op.cells) break;
        c.native -= op.native;
        c.cells -= op.cells;
        mmu->release(op.index, op.native, op.cells * cfg.mmu.cell_bytes);
        break;
      }
    }
  }
  scratch.run();
}

void replay_codec(const std::vector<Station>& stations, Spans& spans) {
  std::vector<std::vector<std::uint8_t>> wire;
  for (const Station& st : stations) {
    for (const of::OfMessage& msg : st.recorder->messages()) {
      std::vector<std::uint8_t> buf;
      spans.encode([&] { of::encode_message_into(msg, buf); });
      wire.push_back(std::move(buf));
    }
  }
  for (const std::vector<std::uint8_t>& buf : wire) {
    (void)spans.decode([&] { return of::decode_message(std::span<const std::uint8_t>(buf)); });
  }
}

double per_k(std::uint64_t n, std::uint64_t base) {
  return base == 0 ? 0.0 : 1000.0 * static_cast<double>(n) / static_cast<double>(base);
}

double ratio(std::uint64_t n, std::uint64_t base) {
  return base == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(base);
}

}  // namespace

TracedRun traced_run(const Plan& plan, double untraced_wall_s, double obs_overhead_pct,
                     double testbed_build_ns) {
  TracedRun out;
  Spans spans;
  LayerCounts counts;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  std::uint64_t int_stamps = 0;
  std::uint64_t mmu_rejected = 0;
  double peak_units = 0.0;
  double controller_s = 0.0;
  double traced_s = 0.0;

  // Each experiment is traced, then replayed and dropped before the next
  // one runs, so only one experiment's recordings are held at a time.
  auto account = [&](TracedExperiment t, double wall_s) {
    traced_s += wall_s;
    out.fingerprints.push_back(t.outcome.fingerprint);
    sent += t.outcome.packets_sent;
    delivered += t.outcome.packets_delivered;
    int_stamps += t.outcome.int_stamps;
    mmu_rejected += t.outcome.mmu_rejected;
    peak_units = std::max(peak_units, t.outcome.buffer_max_units);
    events += t.events;
    controller_s += t.controller_s;
    for (const Station& st : t.stations) {
      counts += st.recorder->counts();
      replay_station(st, spans);
    }
    replay_events(t.stations, spans.event);
    replay_codec(t.stations, spans);
  };
  for (const core::ExperimentConfig& c : plan.single) {
    const auto t0 = Clock::now();
    TracedExperiment t = trace_single(c);
    account(std::move(t), std::chrono::duration<double>(Clock::now() - t0).count());
  }
  for (const core::FabricExperimentConfig& c : plan.fabric) {
    const auto t0 = Clock::now();
    TracedExperiment t = trace_fabric(c, plan.lossy);
    account(std::move(t), std::chrono::duration<double>(Clock::now() - t0).count());
  }
  out.wall_s = traced_s;

  const double oh = span_overhead_ns();
  const double data_frames = static_cast<double>(counts.ingress + delivered);
  const double psent = static_cast<double>(sent);
  // Every switch ingress except a host's first hop left some switch's
  // egress; host deliveries and egress drops are the remaining enqueues.
  const double enqueues = static_cast<double>(counts.ingress) - psent +
                          static_cast<double>(delivered + counts.egress_drops);
  const double event_ns = spans.event.calls == 0
                              ? 0.0
                              : spans.event.ns / static_cast<double>(spans.event.calls);
  out.metrics = {
      {"sim.events_per_pkt", "1/pkt", ratio(events, sent)},
      {"sim.ns_per_event", "ns", event_ns},
      {"net.frames_per_pkt", "1/pkt",
       psent == 0 ? 0.0 : (data_frames + static_cast<double>(counts.control_msgs)) / psent},
      {"net.ns_per_send", "ns", spans.send.per_call(oh)},
      {"egress.enqueues_per_pkt", "1/pkt", psent == 0 ? 0.0 : enqueues / psent},
      {"egress.drops_per_kpkt", "1/kpkt", per_k(counts.egress_drops, sent)},
      {"egress.ns_per_enqueue", "ns", spans.enqueue.per_call(oh)},
      {"flow_table.lookups_per_pkt", "1/pkt", ratio(counts.ingress, sent)},
      {"flow_table.hit_ratio", "ratio", 1.0 - ratio(counts.misses, counts.ingress)},
      {"flow_table.adds_per_kpkt", "1/kpkt", per_k(counts.rule_adds, sent)},
      {"flow_table.evictions_per_kpkt", "1/kpkt", per_k(counts.evictions, sent)},
      {"flow_table.ns_per_lookup", "ns", spans.lookup.per_call(oh)},
      {"flow_table.ns_per_add", "ns", spans.add.per_call(oh)},
      {"buffer.stores_per_kpkt", "1/kpkt", per_k(counts.buffer_stores, sent)},
      {"buffer.pkts_per_unit", "pkt/unit", ratio(counts.buffer_stores, counts.buffer_units)},
      {"buffer.peak_units", "units", peak_units},
      {"buffer.ns_per_store", "ns", spans.store.per_call(oh)},
      {"buffer.ns_per_release", "ns", spans.release.per_call(oh)},
      {"mmu.admits_per_pkt", "1/pkt", ratio(counts.mmu_admits, sent)},
      {"mmu.reject_ratio", "ratio", ratio(mmu_rejected, counts.mmu_admits + mmu_rejected)},
      {"mmu.ns_per_admit", "ns", spans.admit.per_call(oh)},
      {"of.msgs_per_pkt", "1/pkt", ratio(counts.control_msgs, sent)},
      {"of.bytes_per_pkt", "B/pkt", ratio(counts.control_bytes, sent)},
      {"of.full_frame_pkt_in_ratio", "ratio", ratio(counts.full_frame_pkt_ins, counts.pkt_ins)},
      {"of.ns_per_encode", "ns", spans.encode.per_call(oh)},
      {"of.ns_per_decode", "ns", spans.decode.per_call(oh)},
      {"ctrl.pkt_ins_per_kpkt", "1/kpkt", per_k(counts.pkt_ins, sent)},
      {"ctrl.ns_per_pkt_in", "ns",
       counts.pkt_ins == 0 ? 0.0 : controller_s * 1e9 / static_cast<double>(counts.pkt_ins)},
      {"obs.int_stamps_per_pkt", "1/pkt", ratio(int_stamps, sent)},
      {"obs.overhead_pct", "%", obs_overhead_pct},
      {"core.ns_per_testbed_build", "ns", testbed_build_ns},
      {"trace.overhead_pct", "%",
       untraced_wall_s > 0.0 ? (traced_s / untraced_wall_s - 1.0) * 100.0 : 0.0},
  };
  return out;
}

}  // namespace perfbench
