// Simulation-core performance benchmark — the repo's perf trajectory.
//
// Stages, mirroring the performance engine (DESIGN.md §9) and the
// observability overhead contract (DESIGN.md §10.5):
//
//   flow_scaling  E1 at 10^4 and 10^5 single-packet flows (10^6 in full
//               mode; --quick runs only 10^4): wall time, packets/sec and
//               the process's peak resident memory per flow (DESIGN.md §9.7);
//               runs first, see bench_flow_scaling
//   scheduler   events/sec on a scheduler-only workload (self-rescheduling
//               timer chain plus a cancelled victim per tick, so slot reuse
//               and tombstone handling are both on the clock, over 96
//               resident periodic timers that keep the heap as deep as a
//               fabric run's)
//   flow_table  a standalone full 4096-rule table, per eviction policy:
//               adds/sec when every add evicts one rule, and lookups/sec
//               for lookups that hit (DESIGN.md §9.5)
//   e1_run      packets/sec through the full reactive path on a standard E1
//               run (1000 single-packet UDP flows at 50 Mbps, buffer-256)
//   e1_obs      the obs overhead gate: interleaved obs-off / obs-on E1 runs
//               (metrics + tracing at default 1-in-16 sampling), comparing
//               minimum per-run wall times — must stay ≤5%
//   e1_prof     same, with the event-loop profiler added (opt-in layer,
//               ~20% by design: two steady_clock reads per event)
//   sweep       wall-clock of a repeated E1 sweep at --jobs 1 vs --jobs N,
//               with the bitwise determinism contract checked on the spot
//               (skipped under --no-sweep, e.g. in the sanitizer pass)
//
// Results go to stdout and to a JSON file (default BENCH_simcore.json in
// the current directory — run from the repo root to seed the trajectory),
// together with the host's core count, the build type and the compiler.
// CI runs `--quick` and uploads the JSON as an artifact so regressions in
// events/sec, packets/sec, or parallel speedup are visible per commit.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <thread>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "switchd/flow_table.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using sdnbuf::sim::EventHandle;
using sdnbuf::sim::Simulator;
using sdnbuf::sim::SimTime;
namespace core = sdnbuf::core;
namespace net = sdnbuf::net;
namespace sw = sdnbuf::sw;

#ifndef SDNBUF_BUILD_TYPE
#define SDNBUF_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

// Before/after record for the O(1) flow-table change (Match-keyed exact
// index, indexed duplicate check, incremental LRU/FIFO victim order),
// measured back to back on one host; see DESIGN.md §9.5.
constexpr const char* kFlowTableNote =
    "before -> after the O(1) flow-table change, same 4-core host, Release, gcc 12.2, the parent "
    "commit and the change run back to back: flow_table adds/sec lru 17826 -> 2986822, fifo "
    "14997 -> 3458939, random 14335 -> 52328 (Random keeps its O(n) positional pick; the rest "
    "of its gain is the indexed duplicate check); hit lookups/sec lru 4.80M -> 8.78M, fifo "
    "4.69M -> 9.33M, random 4.78M -> 7.87M; e1_run over 30 runs 72654 / 71651 -> 117944 / "
    "137336 packets/sec; bench_fig5_flow_setup_delay full run at --jobs 4, median of 5, "
    "4.96 s -> 2.91 s with fig5.csv byte-identical.";

// Before/after record for moving packets and OpenFlow messages through the
// switch, channel and controller instead of copying them into closures;
// see DESIGN.md §9.6.
constexpr const char* kMissPathNote =
    "before -> after the allocation-free miss path, same 4-core host, Release, gcc 12.2, the "
    "parent commit and the change alternating: e1_run over 300 runs, six pairs, median "
    "142.7k -> 162.6k packets/sec (change ahead in 6/6); bench_fig5_flow_setup_delay full run "
    "at --jobs 4, six pairs, median 2.29 s -> 1.97 s (6/6) with fig5.csv byte-identical.";

// Before/after record for per-flow state that retires with its flow; see
// DESIGN.md §9.7.
constexpr const char* kFlowScalingNote =
    "before -> after compact, retiring per-flow state (HostSink seen-set, switch pending "
    "requests, DelayRecorder records), same 4-core host, Release, gcc 12.2, two full runs per "
    "side: peak RSS 10^4 flows 10.6 / 10.8 -> 7.1 / 7.2 MB, 10^5 59.6 / 59.9 -> 23.4 / 23.5 MB, "
    "10^6 541.9 / 542.2 -> 201.6 / 201.8 MB (518 -> 192 B/flow); packets/sec 10^4 81.5k / "
    "85.8k -> 114.5k / 101.6k, 10^6 78.5k / 78.3k -> 134.0k / 98.1k. Simulated results "
    "unchanged.";

// Before/after record for building each event's callable once, in its
// slot; see DESIGN.md §9.1.
constexpr const char* kSchedulerNote =
    "before -> after building each event's callable once, in its slot (forwarding "
    "schedule/schedule_at and Link::send), same 4-core host, Release, gcc 12.2, this stage "
    "with its 96 resident timers built against both commits, 10 alternating pairs: median "
    "10.16M -> 12.41M events/sec (change ahead in 8/10); bench_fig5_flow_setup_delay full run "
    "at --jobs 4, 16 alternating pairs: median 1.70 s -> 1.66 s (change faster in 10/16, 2 "
    "ties), inside the parent's quartile spread (1.64-1.83 s), so no fig5 change is "
    "resolved; fig5.csv byte-identical.";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Scheduler-only workload. Each tick cancels the previous victim timer,
// schedules a fresh one, and reschedules itself: 2 schedules + 1 cancel per
// tick, all through pooled slots. Captures fit the EventFn inline buffer.
struct Tick {
  Simulator* sim;
  std::uint64_t* remaining;
  EventHandle* victim;
  void operator()() const {
    if (victim->pending()) victim->cancel();
    *victim = sim->schedule(SimTime::milliseconds(10), []() {});
    if (--*remaining > 0) sim->schedule(SimTime::microseconds(1), Tick{*this});
  }
};

// Resident periodic timers keep the heap as deep as a fabric run's (a mean
// depth at pop of 22 to 122 entries across the perfbench workloads), so
// every push and pop sifts through the levels a real run pays for. Each
// re-arms itself every kResidentPeriod until the tick chain ends.
constexpr int kResidentTimers = 96;
constexpr SimTime kResidentPeriod = SimTime::microseconds(kResidentTimers);

struct Resident {
  Simulator* sim;
  const std::uint64_t* remaining;
  void operator()() const {
    if (*remaining > 0) sim->schedule(kResidentPeriod, Resident{*this});
  }
};

struct SchedulerScore {
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
};

SchedulerScore bench_scheduler(std::uint64_t ticks) {
  Simulator sim;
  std::uint64_t remaining = ticks;
  EventHandle victim;
  sim.schedule(SimTime::zero(), Tick{&sim, &remaining, &victim});
  // Staggered so one resident fires per microsecond, half a tick off the
  // chain's times.
  for (int i = 0; i < kResidentTimers; ++i) {
    sim.schedule(SimTime::nanoseconds(1000LL * i + 500), Resident{&sim, &remaining});
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  SchedulerScore score;
  score.wall_s = seconds_since(t0);
  score.executed = sim.executed_events();
  score.cancelled = ticks - 1;  // every victim but the last is cancelled
  score.events_per_sec = static_cast<double>(score.executed) / score.wall_s;
  return score;
}

// Flow-table stage: the install-into-a-full-table path the table_churn
// workload hammers, without the rest of the switch around it. The table is
// filled to capacity first, so each timed add evicts exactly one rule; the
// clock advances 1 us per operation, as simulated time does between
// packets. Lookups then cycle over the resident rules, so every one hits.
struct FlowTableCase {
  sw::EvictionPolicy policy = sw::EvictionPolicy::Lru;
  std::uint64_t adds = 0;
  double adds_per_sec = 0.0;
  std::uint64_t lookups = 0;
  double lookups_per_sec = 0.0;
  bool ok = false;  // every add evicted once, every lookup hit
};

constexpr std::size_t kFlowTableRules = 4096;

net::Packet flow_table_packet(std::uint32_t flow) {
  return net::make_udp_packet(net::MacAddress::from_index(1), net::MacAddress::from_index(2),
                              net::Ipv4Address{0x0a000000u + flow},
                              net::Ipv4Address::from_octets(10, 255, 0, 1),
                              static_cast<std::uint16_t>(1024 + flow % 60000), 9, 1000);
}

FlowTableCase bench_flow_table(sw::EvictionPolicy policy, bool quick) {
  FlowTableCase c;
  c.policy = policy;
  c.adds = quick ? 10'000 : 100'000;
  c.lookups = quick ? 200'000 : 2'000'000;
  sw::FlowTable table{kFlowTableRules, policy, 1};
  sw::FlowEntry entry;
  entry.priority = 100;
  entry.actions = sdnbuf::of::output_to(2);
  entry.match = sdnbuf::of::Match::exact_from(flow_table_packet(0), 1);
  SimTime now = SimTime::zero();
  auto add = [&](std::uint32_t flow) {
    entry.match.nw_src = net::Ipv4Address{0x0a000000u + flow};
    entry.match.tp_src = static_cast<std::uint16_t>(1024 + flow % 60000);
    entry.cookie = flow;
    now += SimTime::microseconds(1);
    return table.add(entry, now).evicted.size();
  };
  for (std::uint32_t f = 0; f < kFlowTableRules; ++f) add(f);

  std::uint64_t evicted = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < c.adds; ++i) {
    evicted += add(static_cast<std::uint32_t>(kFlowTableRules + i));
  }
  c.adds_per_sec = static_cast<double>(c.adds) / seconds_since(t0);

  std::vector<net::Packet> resident;
  resident.reserve(kFlowTableRules);
  for (const sw::FlowEntry* e : table.entries()) {
    resident.push_back(flow_table_packet(static_cast<std::uint32_t>(e->cookie)));
  }
  std::uint64_t hits = 0;
  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < c.lookups; ++i) {
    now += SimTime::microseconds(1);
    // A multiplicative stride, so consecutive lookups touch rules far apart
    // in the table (and move them in the LRU order).
    const net::Packet& p = resident[(i * 2654435761u) % resident.size()];
    hits += table.lookup(p, 1, now) != nullptr ? 1 : 0;
  }
  c.lookups_per_sec = static_cast<double>(c.lookups) / seconds_since(t0);
  c.ok = evicted == c.adds && hits == c.lookups;
  return c;
}

core::ExperimentConfig e1_config() {
  core::ExperimentConfig config;
  config.mode = sw::BufferMode::PacketGranularity;
  config.buffer_capacity = 256;
  config.rate_mbps = 50.0;
  config.frame_size = 1000;
  config.n_flows = 1000;
  config.packets_per_flow = 1;
  config.seed = 1;
  return config;
}

// Flow-count scaling stage: one E1 run of `flows` single-packet flows.
// Memory is the process's resident high-water mark (VmHWM), so rows run
// first and in ascending size: each row's peak then sets a new mark, and
// bytes_per_flow charges the rise above the resident size the row started
// from. Reads 0 where /proc/self/status is missing.
struct FlowScalingRow {
  std::uint64_t flows = 0;
  double wall_s = 0.0;
  double packets_per_sec = 0.0;
  double peak_rss_mb = 0.0;
  double bytes_per_flow = 0.0;
};

// A "VmHWM:" / "VmRSS:" line of /proc/self/status, in bytes (0 if absent).
std::uint64_t proc_status_bytes(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10) * 1024;  // kB
    }
  }
  return 0;
}

FlowScalingRow bench_flow_scaling(std::uint64_t flows) {
  core::ExperimentConfig config = e1_config();
  config.n_flows = flows;
  const std::uint64_t rss_before = proc_status_bytes("VmRSS:");
  const auto t0 = std::chrono::steady_clock::now();
  const core::ExperimentResult r = core::run_experiment(config);
  FlowScalingRow row;
  row.flows = flows;
  row.wall_s = seconds_since(t0);
  row.packets_per_sec = static_cast<double>(r.packets_delivered) / row.wall_s;
  const std::uint64_t hwm = proc_status_bytes("VmHWM:");
  row.peak_rss_mb = static_cast<double>(hwm) / (1024.0 * 1024.0);
  row.bytes_per_flow =
      static_cast<double>(hwm > rss_before ? hwm - rss_before : 0) / static_cast<double>(flows);
  return row;
}

struct E1Score {
  std::uint64_t runs = 0;
  std::uint64_t packets = 0;
  double wall_s = 0.0;
  double packets_per_sec = 0.0;
};

E1Score bench_e1(int runs) {
  E1Score score;
  score.runs = static_cast<std::uint64_t>(runs);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < runs; ++i) {
    core::ExperimentConfig config = e1_config();
    config.seed = static_cast<std::uint64_t>(i + 1);
    const core::ExperimentResult r = core::run_experiment(config);
    score.packets += r.packets_delivered;
    // run_experiment tears the testbed down, so count what the workload
    // pushed through: every delivered packet crossed the full reactive
    // path (miss -> packet_in -> flow_mod/packet_out -> forward).
  }
  score.wall_s = seconds_since(t0);
  score.packets_per_sec = static_cast<double>(score.packets) / score.wall_s;
  return score;
}

// Obs-overhead stage (ISSUE 4 acceptance): the same E1 workload with the
// observability layers attached — metrics registry with instruments and
// polls plus the flow tracer at the default sampling period (and, for the
// e1_prof variant, the event-loop profiler too). Obs-off and obs-on runs
// interleave, and the overhead compares the MINIMUM per-run wall time of
// each side: the minimum is what the code costs when the machine does not
// preempt it, so the number is stable where a mean would inherit scheduler
// noise. The contract is <= 5% for metrics+tracing at default sampling.
// (The obs-off run IS the disabled-cost measurement: every null-sink
// pointer check is on its path.)
struct ObsScore {
  std::uint64_t runs = 0;
  std::uint64_t packets = 0;
  double min_off_s = 0.0;   // best obs-off run
  double min_on_s = 0.0;    // best obs-on run
  double packets_per_sec = 0.0;  // obs-on, from the best run
  double overhead_pct = 0.0;
  bool converged = false;  // both minima stalled before the run cap
  std::uint64_t trace_events = 0;
  std::uint64_t snapshots = 0;
};

ObsScore bench_e1_obs(int runs, bool with_profiler) {
  namespace obs = sdnbuf::obs;
  if (runs < 10) runs = 10;  // a single-run minimum is still noise
  // A fixed run count is not enough on a preemption-happy (1-core CI) host:
  // if every obs-off run of the batch lands on a bad scheduler slice the
  // "minimum" is still inflated and the gate reports phantom overhead (a
  // recorded 15.7% that no code change explained). So the interleaving
  // continues past `runs` until BOTH minima have gone kStallRuns
  // consecutive iterations without improving by more than 1%, i.e. until
  // the floor has actually been observed — capped at 5x in case the host
  // never quiets down (reported as converged=false).
  constexpr int kStallRuns = 8;
  const int max_runs = runs * 5;
  ObsScore score;
  double min_off = 1e300;
  double min_on = 1e300;
  std::uint64_t best_on_packets = 0;
  int stall = 0;
  int i = 0;
  for (; i < max_runs && (i < runs || stall < kStallRuns); ++i) {
    core::ExperimentConfig config = e1_config();
    config.seed = static_cast<std::uint64_t>(i + 1);
    auto t0 = std::chrono::steady_clock::now();
    (void)core::run_experiment(config);
    const double off_s = seconds_since(t0);
    bool improved = off_s < min_off * 0.99;
    min_off = std::min(min_off, off_s);

    obs::MetricsRegistry registry;
    obs::TraceWriter writer;
    obs::FlowTracer tracer{writer, static_cast<std::uint64_t>(i + 1), 16};
    obs::EventLoopProfiler profiler;
    // Decomposition knobs: OBS_NO_METRICS / OBS_NO_TRACER in the environment
    // drop one layer so a regression can be attributed without a rebuild.
    if (std::getenv("OBS_NO_METRICS") == nullptr) config.metrics = &registry;
    if (std::getenv("OBS_NO_TRACER") == nullptr) config.tracer = &tracer;
    if (with_profiler) config.profiler = &profiler;
    t0 = std::chrono::steady_clock::now();
    const core::ExperimentResult r = core::run_experiment(config);
    const double on_s = seconds_since(t0);
    if (on_s < min_on * 0.99) improved = true;
    if (on_s < min_on) {
      min_on = on_s;
      best_on_packets = r.packets_delivered;
    }
    stall = improved ? 0 : stall + 1;
    score.packets += r.packets_delivered;
    score.trace_events += writer.event_count();
    score.snapshots += registry.snapshot_count();
  }
  score.runs = static_cast<std::uint64_t>(i);
  score.converged = stall >= kStallRuns;
  score.min_off_s = min_off;
  score.min_on_s = min_on;
  if (min_on > 0.0) score.packets_per_sec = static_cast<double>(best_on_packets) / min_on;
  if (min_off > 0.0) score.overhead_pct = (min_on / min_off - 1.0) * 100.0;
  return score;
}

// Telemetry-overhead stage (DESIGN.md §15): the same adaptive interleaved
// minimum as bench_e1_obs, but with the telemetry plane on — observatory
// ledger + INT stamping (depth 4) + 1-in-16 sampling feeding the flow
// monitor. Unlike the passive obs layer, telemetry-on legitimately changes
// the simulated run (vendor messages, CPU costs); the gate is about the
// wall-clock cost of the machinery, which must stay <= 5% at default
// sampling.
struct TelemetryScore {
  std::uint64_t runs = 0;
  double min_off_s = 0.0;
  double min_on_s = 0.0;
  double overhead_pct = 0.0;
  bool converged = false;
  std::uint64_t flow_samples = 0;  // from the best telemetry-on run
  std::uint64_t int_stamps = 0;
};

TelemetryScore bench_e1_telemetry(int runs) {
  namespace obs = sdnbuf::obs;
  if (runs < 10) runs = 10;
  constexpr int kStallRuns = 8;
  const int max_runs = runs * 5;
  TelemetryScore score;
  double min_off = 1e300;
  double min_on = 1e300;
  int stall = 0;
  int i = 0;
  for (; i < max_runs && (i < runs || stall < kStallRuns); ++i) {
    core::ExperimentConfig config = e1_config();
    config.seed = static_cast<std::uint64_t>(i + 1);
    auto t0 = std::chrono::steady_clock::now();
    (void)core::run_experiment(config);
    const double off_s = seconds_since(t0);
    bool improved = off_s < min_off * 0.99;
    min_off = std::min(min_off, off_s);

    // Decomposition knobs, mirroring OBS_NO_METRICS/OBS_NO_TRACER: drop one
    // telemetry layer via the environment to attribute a regression.
    obs::FabricObservatory observatory;
    if (std::getenv("TELEM_NO_OBSERVATORY") == nullptr) config.observatory = &observatory;
    if (std::getenv("TELEM_NO_INT") == nullptr) {
      config.testbed.switch_config.telemetry_int_depth = 4;
    }
    if (std::getenv("TELEM_NO_SAMPLING") == nullptr) {
      config.testbed.switch_config.telemetry_sample_period = 16;
      config.testbed.controller_config.flow_monitor_enabled = true;
    }
    t0 = std::chrono::steady_clock::now();
    const core::ExperimentResult r = core::run_experiment(config);
    const double on_s = seconds_since(t0);
    if (on_s < min_on * 0.99) improved = true;
    if (on_s < min_on) {
      min_on = on_s;
      score.flow_samples = r.flow_samples;
      score.int_stamps = r.int_stamps;
    }
    stall = improved ? 0 : stall + 1;
  }
  score.runs = static_cast<std::uint64_t>(i);
  score.converged = stall >= kStallRuns;
  score.min_off_s = min_off;
  score.min_on_s = min_on;
  if (min_off > 0.0) score.overhead_pct = (min_on / min_off - 1.0) * 100.0;
  return score;
}

struct SweepScore {
  std::size_t rates = 0;
  int reps = 0;
  unsigned jobs = 1;
  double sequential_s = 0.0;
  double parallel_s = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

SweepScore bench_sweep(bool quick, unsigned jobs) {
  core::SweepConfig sweep;
  sweep.base = e1_config();
  sweep.rates_mbps = quick ? std::vector<double>{5, 50} : std::vector<double>{5, 50, 100};
  sweep.repetitions = quick ? 4 : 20;

  SweepScore score;
  score.rates = sweep.rates_mbps.size();
  score.reps = sweep.repetitions;
  score.jobs = jobs;

  sweep.jobs = 1;
  auto t0 = std::chrono::steady_clock::now();
  const core::SweepResult sequential = core::run_sweep(sweep, "e1");
  score.sequential_s = seconds_since(t0);

  sweep.jobs = static_cast<int>(jobs);
  t0 = std::chrono::steady_clock::now();
  const core::SweepResult parallel = core::run_sweep(sweep, "e1");
  score.parallel_s = seconds_since(t0);

  score.speedup = score.sequential_s / score.parallel_s;
  std::ostringstream seq_csv;
  std::ostringstream par_csv;
  core::write_csv(sequential, seq_csv);
  core::write_csv(parallel, par_csv);
  score.identical = core::bitwise_equal(sequential, parallel) && seq_csv.str() == par_csv.str();
  return score;
}

}  // namespace

int main(int argc, char** argv) {
  const sdnbuf::util::CliFlags flags(argc, argv,
                                     {"quick", "jobs", "out", "e1-runs", "ticks", "no-sweep"});
  if (!flags.ok()) {
    std::cerr << flags.error() << "\n"
              << "usage: " << argv[0] << " [--quick] [--jobs N] [--out PATH] [--no-sweep]\n";
    return 1;
  }
  const bool quick = flags.get_bool("quick", false);
  const bool no_sweep = flags.get_bool("no-sweep", false);
  const unsigned jobs = static_cast<unsigned>(flags.get_int(
      "jobs", static_cast<long long>(sdnbuf::util::ThreadPool::default_parallelism())));
  const std::string out_path = flags.get_string("out", "BENCH_simcore.json");
  const auto ticks =
      static_cast<std::uint64_t>(flags.get_int("ticks", quick ? 300'000 : 2'000'000));
  const int e1_runs = static_cast<int>(flags.get_int("e1-runs", quick ? 1 : 3));

  std::printf("bench_simcore (%s, jobs=%u)\n", quick ? "quick" : "full", jobs);

  // First, while the process's resident high-water mark is still its
  // start-up footprint (see bench_flow_scaling).
  std::vector<FlowScalingRow> flow_scaling;
  for (const std::uint64_t flows : quick ? std::vector<std::uint64_t>{10'000}
                                         : std::vector<std::uint64_t>{10'000, 100'000,
                                                                      1'000'000}) {
    const FlowScalingRow row = bench_flow_scaling(flows);
    std::printf("flow_scale: %7llu flows in %.3f s -> %.0f packets/sec  peak RSS %.1f MB  "
                "%.0f B/flow\n",
                static_cast<unsigned long long>(row.flows), row.wall_s, row.packets_per_sec,
                row.peak_rss_mb, row.bytes_per_flow);
    flow_scaling.push_back(row);
  }

  const SchedulerScore sched = bench_scheduler(ticks);
  std::printf("scheduler : %llu events (%llu cancels) in %.3f s -> %.0f events/sec\n",
              static_cast<unsigned long long>(sched.executed),
              static_cast<unsigned long long>(sched.cancelled), sched.wall_s,
              sched.events_per_sec);

  std::vector<FlowTableCase> flow_table;
  bool flow_table_ok = true;
  for (const sw::EvictionPolicy policy :
       {sw::EvictionPolicy::Lru, sw::EvictionPolicy::Fifo, sw::EvictionPolicy::Random}) {
    const FlowTableCase c = bench_flow_table(policy, quick);
    std::printf("flow_table: %-6s %zu rules  %.0f adds/sec (%llu adds, one eviction each)  "
                "%.0f hit lookups/sec%s\n",
                sw::eviction_policy_name(policy), kFlowTableRules, c.adds_per_sec,
                static_cast<unsigned long long>(c.adds), c.lookups_per_sec,
                c.ok ? "" : "  [CHECK FAILED]");
    flow_table_ok = flow_table_ok && c.ok;
    flow_table.push_back(c);
  }

  const E1Score e1 = bench_e1(e1_runs);
  std::printf("e1_run    : %llu packets over %llu runs in %.3f s -> %.0f packets/sec\n",
              static_cast<unsigned long long>(e1.packets),
              static_cast<unsigned long long>(e1.runs), e1.wall_s, e1.packets_per_sec);

  const ObsScore obs = bench_e1_obs(e1_runs, /*with_profiler=*/false);
  std::printf(
      "e1_obs    : min run off %.4f s / on %.4f s -> %.0f packets/sec  overhead %.1f%%  "
      "(%llu trace events, %llu snapshots)\n",
      obs.min_off_s, obs.min_on_s, obs.packets_per_sec, obs.overhead_pct,
      static_cast<unsigned long long>(obs.trace_events),
      static_cast<unsigned long long>(obs.snapshots));

  const ObsScore prof = bench_e1_obs(e1_runs, /*with_profiler=*/true);
  std::printf("e1_prof   : min run off %.4f s / on %.4f s -> %.0f packets/sec  overhead %.1f%%\n",
              prof.min_off_s, prof.min_on_s, prof.packets_per_sec, prof.overhead_pct);

  const TelemetryScore telem = bench_e1_telemetry(e1_runs);
  std::printf(
      "e1_telem  : min run off %.4f s / on %.4f s  overhead %.1f%%  "
      "(%llu samples, %llu stamps)\n",
      telem.min_off_s, telem.min_on_s, telem.overhead_pct,
      static_cast<unsigned long long>(telem.flow_samples),
      static_cast<unsigned long long>(telem.int_stamps));

  SweepScore sweep;
  if (!no_sweep) {
    sweep = bench_sweep(quick, jobs);
    std::printf(
        "sweep     : %zu rates x %d reps  jobs=1 %.3f s  jobs=%u %.3f s  speedup %.2fx  %s\n",
        sweep.rates, sweep.reps, sweep.sequential_s, sweep.jobs, sweep.parallel_s, sweep.speedup,
        sweep.identical ? "bit-identical" : "DIVERGED");
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"simcore\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"jobs\": " << jobs << ",\n"
      << "  \"host\": {\"host_cores\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": \"" << SDNBUF_BUILD_TYPE << "\", \"compiler\": \"" << kCompiler
      << "\"},\n"
      << "  \"scheduler\": {\n"
      << "    \"executed_events\": " << sched.executed << ",\n"
      << "    \"cancelled_events\": " << sched.cancelled << ",\n"
      << "    \"wall_s\": " << sched.wall_s << ",\n"
      << "    \"events_per_sec\": " << sched.events_per_sec << ",\n"
      << "    \"resident_timers\": " << kResidentTimers << ",\n"
      << "    \"note\": \"" << kSchedulerNote << "\"\n"
      << "  },\n"
      << "  \"flow_table\": {\n"
      << "    \"rules\": " << kFlowTableRules << ",\n"
      << "    \"cases\": [";
  for (std::size_t i = 0; i < flow_table.size(); ++i) {
    const FlowTableCase& c = flow_table[i];
    out << (i == 0 ? "" : ", ") << "{\"policy\": \"" << sw::eviction_policy_name(c.policy)
        << "\", \"adds\": " << c.adds << ", \"adds_per_sec\": " << c.adds_per_sec
        << ", \"lookups\": " << c.lookups << ", \"lookups_per_sec\": " << c.lookups_per_sec
        << ", \"ok\": " << (c.ok ? "true" : "false") << "}";
  }
  out << "],\n"
      << "    \"note\": \"" << kFlowTableNote << "\"\n"
      << "  },\n"
      << "  \"e1_run\": {\n"
      << "    \"runs\": " << e1.runs << ",\n"
      << "    \"packets\": " << e1.packets << ",\n"
      << "    \"wall_s\": " << e1.wall_s << ",\n"
      << "    \"packets_per_sec\": " << e1.packets_per_sec << ",\n"
      << "    \"note\": \"" << kMissPathNote << "\"\n"
      << "  },\n"
      << "  \"obs_overhead\": {\n"
      << "    \"runs\": " << obs.runs << ",\n"
      << "    \"packets\": " << obs.packets << ",\n"
      << "    \"min_run_off_s\": " << obs.min_off_s << ",\n"
      << "    \"min_run_on_s\": " << obs.min_on_s << ",\n"
      << "    \"packets_per_sec\": " << obs.packets_per_sec << ",\n"
      << "    \"overhead_pct\": " << obs.overhead_pct << ",\n"
      << "    \"converged\": " << (obs.converged ? "true" : "false") << ",\n"
      << "    \"trace_events\": " << obs.trace_events << ",\n"
      << "    \"snapshots\": " << obs.snapshots << ",\n"
      << "    \"note\": \"minimum of interleaved obs-off/obs-on runs, continued until both "
         "minima stall for 8 iterations (converged). A fixed 10-run minimum once recorded a "
         "phantom 15.7% on a 1-core host -- scheduler preemption inflating the obs-off floor, "
         "not a code regression; the adaptive floor reads 1-4% on the same host.\"\n"
      << "  },\n"
      << "  \"obs_profile\": {\n"
      << "    \"runs\": " << prof.runs << ",\n"
      << "    \"min_run_off_s\": " << prof.min_off_s << ",\n"
      << "    \"min_run_on_s\": " << prof.min_on_s << ",\n"
      << "    \"packets_per_sec\": " << prof.packets_per_sec << ",\n"
      << "    \"overhead_pct\": " << prof.overhead_pct << "\n"
      << "  },\n"
      << "  \"telemetry_overhead\": {\n"
      << "    \"runs\": " << telem.runs << ",\n"
      << "    \"min_run_off_s\": " << telem.min_off_s << ",\n"
      << "    \"min_run_on_s\": " << telem.min_on_s << ",\n"
      << "    \"overhead_pct\": " << telem.overhead_pct << ",\n"
      << "    \"converged\": " << (telem.converged ? "true" : "false") << ",\n"
      << "    \"flow_samples\": " << telem.flow_samples << ",\n"
      << "    \"int_stamps\": " << telem.int_stamps << ",\n"
      << "    \"note\": \"telemetry plane fully on (observatory ledger, INT depth 4, 1-in-16 "
         "sampling into the flow monitor) vs off, same adaptive interleaved-minimum protocol "
         "as obs_overhead; the <= 5% contract covers the machinery cost at default sampling.\"\n"
      << "  },\n";
  out << "  \"flow_scaling\": {\n"
      << "    \"rows\": [";
  for (std::size_t i = 0; i < flow_scaling.size(); ++i) {
    const FlowScalingRow& row = flow_scaling[i];
    out << (i == 0 ? "" : ", ") << "{\"flows\": " << row.flows << ", \"wall_s\": " << row.wall_s
        << ", \"packets_per_sec\": " << row.packets_per_sec
        << ", \"peak_rss_mb\": " << row.peak_rss_mb
        << ", \"bytes_per_flow\": " << row.bytes_per_flow << "}";
  }
  out << "],\n"
      << "    \"note\": \"" << kFlowScalingNote << "\"\n"
      << "  },\n";
  if (no_sweep) {
    out << "  \"sweep\": null\n";
  } else {
    out << "  \"sweep\": {\n"
        << "    \"rates\": " << sweep.rates << ",\n"
        << "    \"repetitions\": " << sweep.reps << ",\n"
        << "    \"jobs\": " << sweep.jobs << ",\n"
        << "    \"sequential_s\": " << sweep.sequential_s << ",\n"
        << "    \"parallel_s\": " << sweep.parallel_s << ",\n"
        << "    \"speedup\": " << sweep.speedup << ",\n"
        << "    \"identical\": " << (sweep.identical ? "true" : "false") << ",\n"
        << "    \"note\": \"parallel cells pull from a shared atomic counter (one task per "
           "worker), per-cell dispatch ~0.006 us (was ~0.3 us with submit-per-cell, recorded "
           "speedup 0.96272 at jobs=4). Residual sub-1.0 speedups on 1-core hosts are "
           "oversubscription, not queue contention; results stay bit-identical for any job "
           "count.\"\n"
        << "  }\n";
  }
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  const bool sweep_ok = no_sweep || sweep.identical;
  return sweep_ok && flow_table_ok ? 0 : 1;
}
