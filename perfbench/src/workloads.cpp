#include "workloads.hpp"

#include <bit>

#include "host/traffic_matrix.hpp"
#include "obs/fabric_observatory.hpp"
#include "topo/topology.hpp"

namespace perfbench {

namespace host = sdnbuf::host;
namespace sw = sdnbuf::sw;
namespace topo = sdnbuf::topo;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::PaperGrid: return "paper_grid";
    case Workload::TableChurn: return "table_churn";
    case Workload::FabricSteady: return "fabric_steady";
    case Workload::IncastTelemetry: return "incast_telemetry";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::PaperGrid, Workload::TableChurn, Workload::FabricSteady,
                     Workload::IncastTelemetry}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

namespace {

// Distinct, reproducible per-experiment seeds inside one workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index) { return seed * 64 + index + 1; }

core::ExperimentConfig single(sw::BufferMode mode, std::size_t capacity, double rate_mbps,
                              std::uint64_t n_flows, std::uint32_t packets_per_flow,
                              std::uint64_t seed) {
  core::ExperimentConfig c;
  c.mode = mode;
  c.buffer_capacity = capacity;
  c.rate_mbps = rate_mbps;
  c.frame_size = 1000;
  c.n_flows = n_flows;
  c.packets_per_flow = packets_per_flow;
  c.seed = seed;
  return c;
}

// The paper's E1/E2 grid, reduced. E1 straddles the ~50 Mbps knee where the
// no-buffer bus saturates and buffer-16 starts punting full frames; E2 is
// the cross-sequence multi-packet workload that separates the granularities.
void paper_grid(Plan& plan, std::uint64_t seed) {
  std::uint64_t i = 0;
  for (const double rate : {20.0, 80.0}) {
    plan.single.push_back(
        single(sw::BufferMode::NoBuffer, 256, rate, 1000, 1, sub_seed(seed, i++)));
    plan.single.push_back(
        single(sw::BufferMode::PacketGranularity, 16, rate, 1000, 1, sub_seed(seed, i++)));
    plan.single.push_back(
        single(sw::BufferMode::PacketGranularity, 256, rate, 1000, 1, sub_seed(seed, i++)));
  }
  for (const sw::BufferMode mode :
       {sw::BufferMode::PacketGranularity, sw::BufferMode::FlowGranularity}) {
    core::ExperimentConfig c = single(mode, 256, 50.0, 50, 20, sub_seed(seed, i++));
    c.order = host::EmissionOrder::CrossSequence;
    plan.single.push_back(c);
  }
}

// Single-packet flows, four times the 4096-rule table: every packet misses,
// and once the table is full every install evicts (rules idle out after 5 s,
// longer than the run).
void table_churn(Plan& plan, std::uint64_t seed) {
  plan.single.push_back(
      single(sw::BufferMode::PacketGranularity, 256, 50.0, 4 * 4096, 1, sub_seed(seed, 0)));
}

// The shift of the permutation TrafficMatrixWorkload draws for `seed` on a
// fabric of `n_hosts` (host h sends to h + shift).
unsigned permutation_shift(std::uint64_t seed, unsigned n_hosts) {
  host::TrafficMatrixConfig tm;
  tm.pattern = host::TrafficPattern::Permutation;
  for (unsigned h = 0; h < n_hosts; ++h) {
    tm.host_macs.push_back(topo::Topology::host_mac(h));
    tm.host_ips.push_back(topo::Topology::host_ip(h));
  }
  sdnbuf::sim::Simulator scratch;
  host::TrafficMatrixWorkload gen(scratch, tm, seed * 7919u + 3,
                                  [](unsigned, const sdnbuf::net::Packet&) {});
  return gen.pick_pair(0).second;
}

// Long Pareto flows on a k=4 fat-tree with full-path installs: one miss per
// flow, so per-hop forwarding dominates. A permutation sends host h to
// h + shift, so the shift fixes every path length, and with it the control
// bytes and the forwarding work per packet. Each unit runs every one of the
// 15 shifts once (the seed picks which experiment seed carries each shift
// and draws the flows), so that mix is the same for every seed.
void fabric_steady(Plan& plan, std::uint64_t seed) {
  const topo::Topology fat_tree = topo::make_fat_tree(4);
  const unsigned n = fat_tree.n_hosts();
  std::vector<std::uint64_t> seed_of_shift(n, 0);
  unsigned covered = 0;
  for (std::uint64_t candidate = sub_seed(seed, 0); covered < n - 1; ++candidate) {
    std::uint64_t& slot = seed_of_shift[permutation_shift(candidate, n)];
    if (slot == 0) {
      slot = candidate;
      ++covered;
    }
  }
  for (unsigned shift = 1; shift < n; ++shift) {
    core::FabricExperimentConfig c;
    c.topology = fat_tree;
    c.routing = core::FabricRouting::TopologyFullPath;
    c.mode = sw::BufferMode::FlowGranularity;
    c.buffer_capacity = 256;
    c.pattern = host::TrafficPattern::Permutation;
    c.duration_s = 0.125;
    c.flow_arrival_per_s = 800.0;
    c.pareto_alpha = 1.5;
    c.min_packets = 20;
    c.max_packets = 300;
    c.in_flow_rate_mbps = 5.0;
    c.frame_size = 1000;
    c.seed = seed_of_shift[shift];
    plan.fabric.push_back(c);
  }
}

// Leaf-spine incast at fan-in 15 under a Dynamic Threshold MMU: senders
// burst at 400 Mbps into 100 Mbps host links, so the target's egress queue
// fills, the MMU refuses admissions and packets drop. INT stamping is on and
// flow sampling off, so the simulated run is the same with or without the
// observatory attached. Full-path installs and a 4-core controller keep the
// control plane loaded but short of saturation: with per-hop misses on the
// default 2 cores the controller queue runs away during the burst and setup
// delays swing fivefold with the draw. Eight short bursts per unit keep the
// pooled percentiles steady.
void incast_telemetry(Plan& plan, std::uint64_t seed) {
  for (std::uint64_t i = 0; i < 8; ++i) {
    core::FabricExperimentConfig c;
    c.topology = topo::make_leaf_spine(2, 4, 4);
    c.routing = core::FabricRouting::TopologyFullPath;
    c.mode = sw::BufferMode::PacketGranularity;
    c.buffer_capacity = 64;
    c.pattern = host::TrafficPattern::Incast;
    c.incast_target = 0;
    c.incast_fanin = 15;
    c.duration_s = 0.1;
    c.flow_arrival_per_s = 2000.0;
    c.min_packets = 4;
    c.max_packets = 32;
    c.frame_size = 1000;
    c.in_flow_rate_mbps = 400.0;
    c.seed = sub_seed(seed, i);
    sw::SwitchConfig& s = c.fabric.switch_config;
    s.egress.queue_limit_bytes = 16 * 1024;
    s.telemetry_int_depth = 4;
    s.telemetry_sample_period = 0;
    s.mmu.enabled = true;
    s.mmu.policy = sw::mmu::PolicyKind::DynamicThreshold;
    s.mmu.pool_cells = 1536;
    s.mmu.cell_bytes = 256;
    s.mmu.headroom_cells = 32;
    s.mmu.reserved_cells = 2;
    s.mmu.alpha = 1.0;
    s.mmu.buffer_alpha = 0.5;
    c.fabric.controller_config.cpu_cores = 4;
    plan.fabric.push_back(c);
  }
  plan.telemetry = true;
  plan.lossy = true;
}

}  // namespace

Plan make_plan(Workload w, std::uint64_t seed) {
  Plan plan;
  switch (w) {
    case Workload::PaperGrid: paper_grid(plan, seed); break;
    case Workload::TableChurn: table_churn(plan, seed); break;
    case Workload::FabricSteady: fabric_steady(plan, seed); break;
    case Workload::IncastTelemetry: incast_telemetry(plan, seed); break;
  }
  return plan;
}

Plan setup_plan(const Plan& plan) {
  Plan out = plan;
  for (core::ExperimentConfig& c : out.single) {
    c.n_flows = 1;
    c.packets_per_flow = 1;
  }
  for (core::FabricExperimentConfig& c : out.fabric) {
    // One expected arrival; the drain still runs the full emission horizon
    // in simulated time, which costs only idle housekeeping events.
    c.duration_s = 1.0 / c.flow_arrival_per_s;
    c.max_packets = c.min_packets;
  }
  return out;
}

void Fingerprint::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

RunOutcome outcome_of(const core::ExperimentResult& r) {
  Fingerprint fp;
  for (const std::uint64_t v :
       {r.packets_sent, r.packets_delivered, r.duplicates, r.flows_complete, r.pkt_ins_sent,
        r.full_frame_pkt_ins, r.resend_pkt_ins, r.flow_mods, r.pkt_outs, r.to_controller_msgs,
        r.to_switch_msgs, r.to_controller_bytes, r.to_switch_bytes, r.int_stamps, r.mmu_rejected,
        r.mmu_peak_pool_cells}) {
    fp.add(v);
  }
  for (const double v : {r.duration_s, r.buffer_avg_units, r.buffer_max_units,
                         r.controller_cpu_pct, r.switch_cpu_pct}) {
    fp.add(v);
  }
  for (const util::Samples* s : {&r.setup_ms, &r.controller_ms, &r.switch_ms, &r.forwarding_ms}) {
    fp.add(static_cast<std::uint64_t>(s->count()));
    for (const double x : s->values()) fp.add(x);
  }

  RunOutcome o;
  o.fingerprint = fp.value();
  o.packets_sent = r.packets_sent;
  o.packets_delivered = r.packets_delivered;
  o.control_bytes = r.to_controller_bytes + r.to_switch_bytes;
  o.pkt_ins = r.pkt_ins_sent;
  o.full_frame_pkt_ins = r.full_frame_pkt_ins;
  o.mmu_rejected = r.mmu_rejected;
  o.int_stamps = r.int_stamps;
  o.buffer_max_units = r.buffer_max_units;
  o.setup_ms = r.setup_ms;
  o.completed = r.drained && r.duplicates == 0;
  return o;
}

RunOutcome outcome_of(const core::FabricExperimentResult& r, bool lossy) {
  Fingerprint fp;
  for (const std::uint64_t v :
       {r.flows, r.packets_sent, r.packets_delivered, r.duplicates, r.pkt_ins,
        r.full_frame_pkt_ins, r.flow_mods, r.pkt_outs, r.path_preinstalls, r.unroutable_drops,
        r.control_msgs, r.control_bytes, r.flow_samples, r.int_stamps, r.buffer_units_expired,
        r.mmu_rejected, r.mmu_peak_pool_cells}) {
    fp.add(v);
  }
  for (const double v : {r.duration_s, r.buffer_avg_units, r.buffer_max_units}) fp.add(v);
  fp.add(static_cast<std::uint64_t>(r.first_packet_ms.count()));
  for (const double x : r.first_packet_ms.values()) fp.add(x);
  fp.add(static_cast<std::uint64_t>(r.delivered.size()));
  for (const auto& [flow, seq] : r.delivered) {
    fp.add(flow);
    fp.add(static_cast<std::uint64_t>(seq));
  }

  RunOutcome o;
  o.fingerprint = fp.value();
  o.packets_sent = r.packets_sent;
  o.packets_delivered = r.packets_delivered;
  o.control_bytes = r.control_bytes;
  o.pkt_ins = r.pkt_ins;
  o.full_frame_pkt_ins = r.full_frame_pkt_ins;
  o.mmu_rejected = r.mmu_rejected;
  o.int_stamps = r.int_stamps;
  o.buffer_max_units = r.buffer_max_units;
  o.setup_ms = r.first_packet_ms;
  o.completed = lossy ? r.packets_delivered <= r.packets_sent && r.duplicates == 0 : r.drained;
  return o;
}

void UnitOutcome::add(RunOutcome run) {
  Fingerprint fp;
  fp.add(fingerprint);
  fp.add(run.fingerprint);
  fingerprint = fp.value();
  packets_sent += run.packets_sent;
  packets_delivered += run.packets_delivered;
  control_bytes += run.control_bytes;
  for (const double x : run.setup_ms.values()) setup_ms.add(x);
  completed = completed && run.completed;
  runs.push_back(std::move(run));
}

UnitOutcome run_unit(const Plan& plan) {
  UnitOutcome unit;
  for (const core::ExperimentConfig& c : plan.single) unit.add(outcome_of(core::run_experiment(c)));
  for (const core::FabricExperimentConfig& c : plan.fabric) {
    if (!plan.telemetry) {
      unit.add(outcome_of(core::run_fabric_experiment(c), plan.lossy));
      continue;
    }
    sdnbuf::obs::FabricObservatory observatory;
    core::FabricExperimentConfig with_obs = c;
    with_obs.observatory = &observatory;
    const core::FabricExperimentResult r = core::run_fabric_experiment(with_obs);
    unit.ledger_ok = unit.ledger_ok && observatory.injected() == r.packets_sent &&
                     observatory.delivered() == r.packets_delivered && observatory.stranded() == 0;
    unit.add(outcome_of(r, plan.lossy));
  }
  return unit;
}

}  // namespace perfbench
