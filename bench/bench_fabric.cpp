// Fabric-scale extension of the paper's single-switch analysis (§I, §VI):
// the reactive control-path cost and the buffer's saving measured on REAL
// datacenter topologies instead of a chain.
//
// Three sections:
//   A. Fabric size: a permutation traffic matrix over leaf-spine fabrics and
//      a k=4 fat-tree, per buffer mechanism — the Fig. 2 (control-path
//      load), Fig. 5 (flow setup delay) and Fig. 8 (buffer occupancy)
//      analogues as the path length and switch count grow.
//   B. Incast fan-in: N senders converge on one host; every sender's flow
//      misses at every hop toward the shared leaf, so pkt_in pressure
//      concentrates where fan-in does. Flow-granularity answers one miss per
//      flow per switch and so beats packet-granularity as fan-in grows.
//   C. Route installation: per-hop reactive vs controller full-path install
//      on the fat-tree (per-hop pays one round-trip per hop, full-path one
//      round-trip total plus proactive FlowMods).
//
// Every (cell, repetition) owns an independent Simulator/FabricTestbed with
// a seed derived only from its coordinates, so cells fan out across a
// ThreadPool into pre-assigned slots and merge sequentially: results are
// bit-identical for any --jobs value. A self-check re-runs the first cell
// inline and asserts exact equality.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/fabric_experiment.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sdnbuf;

struct FabricSpec {
  std::string label;
  topo::Topology topology;
};

struct CellMeta {
  std::string section;
  std::string fabric;
  std::string mechanism;
  unsigned fanin = 0;  // section B only
};

std::vector<core::FabricExperimentResult> run_cells(
    const std::vector<core::FabricExperimentConfig>& configs, int jobs) {
  std::vector<core::FabricExperimentResult> out(configs.size());
  if (jobs <= 1 || configs.size() <= 1) {
    for (std::size_t i = 0; i < configs.size(); ++i) out[i] = run_fabric_experiment(configs[i]);
    return out;
  }
  const auto workers = std::min<std::size_t>(static_cast<std::size_t>(jobs), configs.size());
  util::ThreadPool pool(static_cast<unsigned>(workers));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    pool.submit([&configs, &out, i] { out[i] = run_fabric_experiment(configs[i]); });
  }
  pool.wait_idle();
  return out;
}

// Aggregates one metric across the repetitions of one cell.
struct CellSummary {
  util::Summary pkt_ins, full_frame, ctrl_kb, ctrl_mbps, first_pkt_ms, buf_avg, buf_max,
      flow_mods, preinstalls, delivered;
  std::uint64_t undelivered = 0;

  void add(const core::FabricExperimentResult& r) {
    pkt_ins.add(static_cast<double>(r.pkt_ins));
    full_frame.add(static_cast<double>(r.full_frame_pkt_ins));
    ctrl_kb.add(static_cast<double>(r.control_bytes) / 1000.0);
    ctrl_mbps.add(r.control_mbps);
    first_pkt_ms.add(r.first_packet_ms.empty() ? 0.0 : r.first_packet_ms.mean());
    buf_avg.add(r.buffer_avg_units);
    buf_max.add(r.buffer_max_units);
    flow_mods.add(static_cast<double>(r.flow_mods));
    preinstalls.add(static_cast<double>(r.path_preinstalls));
    delivered.add(static_cast<double>(r.packets_delivered));
    undelivered += r.packets_sent - r.packets_delivered;
  }
};

std::vector<bench::MechanismSpec> fabric_mechanisms() {
  return {
      {"no-buffer", sw::BufferMode::NoBuffer, 0},
      {"packet-granularity", sw::BufferMode::PacketGranularity, 256},
      {"flow-granularity", sw::BufferMode::FlowGranularity, 256},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  const int reps = options.repetitions;

  // Common workload shape: short multi-packet flows so packet- and
  // flow-granularity actually differ, at a rate the 100 Mbps edges carry.
  core::FabricExperimentConfig base;
  base.pattern = host::TrafficPattern::Permutation;
  base.duration_s = 0.25;
  base.flow_arrival_per_s = 300.0;
  base.min_packets = 2;
  base.max_packets = 20;
  base.in_flow_rate_mbps = 20.0;

  std::vector<core::FabricExperimentConfig> configs;
  std::vector<CellMeta> meta;
  std::vector<int> cell_of;  // config index -> cell index
  std::vector<int> cell_first;  // cell index -> first config index

  const auto push_cell = [&](const CellMeta& m, const core::FabricExperimentConfig& cell) {
    const int cell_index = static_cast<int>(meta.size());
    meta.push_back(m);
    cell_first.push_back(static_cast<int>(configs.size()));
    for (int rep = 0; rep < reps; ++rep) {
      core::FabricExperimentConfig c = cell;
      c.seed = options.seed * 97 + static_cast<std::uint64_t>(rep);
      configs.push_back(c);
      cell_of.push_back(cell_index);
    }
  };

  // --- Section A: fabric size sweep, permutation matrix.
  std::vector<FabricSpec> fabrics;
  fabrics.push_back({"leaf-spine-2x2", topo::make_leaf_spine(2, 2, 2)});
  fabrics.push_back({"leaf-spine-4x4", topo::make_leaf_spine(4, 4, 4)});
  fabrics.push_back({"fat-tree-k4", topo::make_fat_tree(4)});
  for (const auto& fabric : fabrics) {
    for (const auto& mechanism : fabric_mechanisms()) {
      core::FabricExperimentConfig c = base;
      c.topology = fabric.topology;
      c.mode = mechanism.mode;
      c.buffer_capacity = mechanism.buffer_capacity == 0 ? 256 : mechanism.buffer_capacity;
      push_cell({"A", fabric.label, mechanism.label, 0}, c);
    }
  }

  // --- Section B: incast fan-in sweep on the 4x4 leaf-spine.
  for (const unsigned fanin : {4u, 8u, 15u}) {
    for (const auto& mechanism : fabric_mechanisms()) {
      core::FabricExperimentConfig c = base;
      c.topology = fabrics[1].topology;
      c.pattern = host::TrafficPattern::Incast;
      c.incast_target = 0;
      c.incast_fanin = fanin;
      c.flow_arrival_per_s = 200.0;
      c.mode = mechanism.mode;
      c.buffer_capacity = mechanism.buffer_capacity == 0 ? 256 : mechanism.buffer_capacity;
      push_cell({"B", fabrics[1].label, mechanism.label, fanin}, c);
    }
  }

  // --- Section C: per-hop vs full-path install on the fat-tree.
  for (const auto routing :
       {core::FabricRouting::TopologyPerHop, core::FabricRouting::TopologyFullPath}) {
    core::FabricExperimentConfig c = base;
    c.topology = fabrics[2].topology;
    c.routing = routing;
    c.mode = sw::BufferMode::FlowGranularity;
    c.buffer_capacity = 256;
    push_cell({"C", fabrics[2].label, core::fabric_routing_name(routing), 0}, c);
  }

  const auto results = run_cells(configs, options.jobs);

  // Parallel determinism self-check: the first cell's first repetition,
  // re-run inline, must match the (possibly worker-produced) slot exactly.
  {
    const auto again = run_fabric_experiment(configs[0]);
    SDNBUF_CHECK_MSG(again.packets_sent == results[0].packets_sent &&
                         again.packets_delivered == results[0].packets_delivered &&
                         again.pkt_ins == results[0].pkt_ins &&
                         again.control_bytes == results[0].control_bytes &&
                         again.delivered == results[0].delivered,
                     "fabric determinism self-check failed");
  }

  std::vector<CellSummary> cells(meta.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    cells[static_cast<std::size_t>(cell_of[i])].add(results[i]);
  }

  util::TableWriter table_a(
      "A. permutation matrix vs fabric size (means over " + std::to_string(reps) + " seeds)");
  table_a.set_columns({"fabric", "mechanism", "pkt_ins", "full-frame", "ctrl KB", "ctrl Mbps",
                       "first-pkt ms", "buf avg", "buf max", "delivered"});
  util::TableWriter table_b("B. incast fan-in on leaf-spine-4x4");
  table_b.set_columns({"fan-in", "mechanism", "pkt_ins", "full-frame", "ctrl KB", "ctrl Mbps",
                       "first-pkt ms", "buf avg", "buf max", "delivered"});
  util::TableWriter table_c("C. route installation on fat-tree-k4 (flow-granularity)");
  table_c.set_columns({"install", "pkt_ins", "flow_mods", "preinstalls", "ctrl KB",
                       "first-pkt ms", "delivered"});

  std::uint64_t undelivered = 0;
  for (std::size_t i = 0; i < meta.size(); ++i) {
    const auto& m = meta[i];
    const auto& c = cells[i];
    undelivered += c.undelivered;
    if (m.section == "A") {
      table_a.add_row({m.fabric, m.mechanism, util::format_double(c.pkt_ins.mean(), 0),
                       util::format_double(c.full_frame.mean(), 0),
                       util::format_double(c.ctrl_kb.mean(), 1),
                       util::format_double(c.ctrl_mbps.mean(), 3),
                       util::format_double(c.first_pkt_ms.mean(), 3),
                       util::format_double(c.buf_avg.mean(), 2),
                       util::format_double(c.buf_max.mean(), 0),
                       util::format_double(c.delivered.mean(), 0)});
    } else if (m.section == "B") {
      table_b.add_row({std::to_string(m.fanin), m.mechanism,
                       util::format_double(c.pkt_ins.mean(), 0),
                       util::format_double(c.full_frame.mean(), 0),
                       util::format_double(c.ctrl_kb.mean(), 1),
                       util::format_double(c.ctrl_mbps.mean(), 3),
                       util::format_double(c.first_pkt_ms.mean(), 3),
                       util::format_double(c.buf_avg.mean(), 2),
                       util::format_double(c.buf_max.mean(), 0),
                       util::format_double(c.delivered.mean(), 0)});
    } else {
      table_c.add_row({m.mechanism, util::format_double(c.pkt_ins.mean(), 0),
                       util::format_double(c.flow_mods.mean(), 0),
                       util::format_double(c.preinstalls.mean(), 0),
                       util::format_double(c.ctrl_kb.mean(), 1),
                       util::format_double(c.first_pkt_ms.mean(), 3),
                       util::format_double(c.delivered.mean(), 0)});
    }
  }

  if (!options.quiet) {
    table_a.print(std::cout);
    std::cout << "\n";
    table_b.print(std::cout);
    std::cout << "\n";
    table_c.print(std::cout);
    std::cout << "\nControl-path load grows with fabric size for every mechanism (a miss per\n"
                 "hop), and the buffered designs ship headers instead of frames at every one\n"
                 "of those hops. Under incast the misses concentrate on the shared leaf:\n"
                 "flow-granularity answers one request per flow per switch and so sends\n"
                 "fewer pkt_ins than packet-granularity, more so as fan-in grows. Full-path\n"
                 "installation trades pkt_ins for proactive flow_mods: one round-trip per\n"
                 "flow instead of one per hop.\n";
    if (undelivered > 0) {
      std::cout << "warning: " << undelivered << " packets undelivered across all runs\n";
    }
    std::cout << "determinism self-check: OK (cell 0 re-run matches bit-for-bit)\n";
  }

  // Full-precision CSV, one row per cell (means across repetitions).
  std::error_code ec;
  std::filesystem::create_directories(options.csv_dir, ec);
  const std::string path = options.csv_dir + "/fabric.csv";
  std::ofstream out(path);
  util::CsvWriter csv(out);
  csv.header({"section", "fabric", "mechanism", "fanin", "pkt_ins", "full_frame_pkt_ins",
              "ctrl_kb", "ctrl_mbps", "first_packet_ms", "buffer_avg_units",
              "buffer_max_units", "flow_mods", "path_preinstalls", "delivered"});
  for (std::size_t i = 0; i < meta.size(); ++i) {
    const auto& m = meta[i];
    const auto& c = cells[i];
    csv.row_strings({m.section, m.fabric, m.mechanism, std::to_string(m.fanin),
                     util::format_double(c.pkt_ins.mean(), 6),
                     util::format_double(c.full_frame.mean(), 6),
                     util::format_double(c.ctrl_kb.mean(), 6),
                     util::format_double(c.ctrl_mbps.mean(), 6),
                     util::format_double(c.first_pkt_ms.mean(), 6),
                     util::format_double(c.buf_avg.mean(), 6),
                     util::format_double(c.buf_max.mean(), 6),
                     util::format_double(c.flow_mods.mean(), 6),
                     util::format_double(c.preinstalls.mean(), 6),
                     util::format_double(c.delivered.mean(), 6)});
  }
  if (!options.quiet) std::cout << "wrote " << path << "\n";
  return undelivered == 0 ? 0 : 2;
}
