// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//   perfbench --workload <name> --seed <n> --fingerprint
//   perfbench --workload <name> --seed <n> --first-packet
//
// One thread. Every run first checks correctness (an untimed pass with
// invariant registries and the workload-shape guards, plus the committed
// reference fingerprints), then either times the workload with tracing off
// (--trace 0: end-to-end metrics) or runs the traced pass (--trace 1:
// per-layer metrics). The last stdout line is one JSON object.
// --first-packet is the set-up probe: the process prints the host clock at
// the workload's first measured packet and exits there; --trace 0 runs
// spawn it to time set-up from process start.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/delay_recorder.hpp"
#include "obs/fabric_observatory.hpp"
#include "speed_probe.hpp"
#include "trace.hpp"
#include "verify/invariants.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// Checked against its committed fingerprint on every run. It was not used
// while the workloads were tuned.
constexpr std::uint64_t kHeldOutSeed = 90001;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
// would also count the launcher's footprint inherited across fork+exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Args {
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool fingerprint_only = false;
  bool first_packet = false;
  std::string commit = "unknown";
};

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--fingerprint" || flag == "--first-packet") {
      (flag == "--fingerprint" ? a.fingerprint_only : a.first_packet) = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    double num = 0.0;
    if (flag == "--workload") {
      a.workload = parse_workload(value);
      if (!a.workload) return std::nullopt;
    } else if (flag == "--seed") {
      if (!parse_number(value, num) || num < 0 || num != static_cast<double>(
                                                      static_cast<std::uint64_t>(num))) {
        return std::nullopt;
      }
      a.seed = static_cast<std::uint64_t>(num);
    } else if (flag == "--seconds") {
      if (!parse_number(value, num) || num <= 0 || num > 600) return std::nullopt;
      a.seconds = num;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      return std::nullopt;
    }
  }
  if (!a.workload) return std::nullopt;
  return a;
}

// Committed fingerprints: "<workload> <seed> <hex>" per line, '#' comments.
std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> load_reference(bool& found) {
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> ref;
  std::ifstream in(PERFBENCH_REFERENCE);
  found = static_cast<bool>(in);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t seed = 0;
    std::string fp;
    if (fields >> name >> seed >> fp) ref[{name, seed}] = std::stoull(fp, nullptr, 16);
  }
  return ref;
}

// Counts every checked run; a run that fails any check is reported by name.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back(what);
    }
  }
  void problem(const std::string& what) { problems.push_back(what); }
};

struct CheckPass {
  UnitOutcome unit;
  LayerCounts counts;
  bool invariants_ok = true;
};

// The untimed check pass: every experiment with invariant registries (one
// per switch on fabrics) and counting recorders on the observer chain.
CheckPass check_pass(const Plan& plan, Ledger& ledger) {
  namespace verify = sdnbuf::verify;
  CheckPass out;
  for (const core::ExperimentConfig& config : plan.single) {
    verify::InvariantRegistry registry;
    Recorder recorder(&registry, false);
    core::ExperimentConfig c = config;
    c.observer = &recorder;
    RunOutcome run = outcome_of(core::run_experiment(c));
    registry.finalize(/*expect_all_delivered=*/run.completed);
    if (!registry.ok()) {
      out.invariants_ok = false;
      ledger.problem("invariants: " + registry.report());
    }
    out.counts += recorder.counts();
    out.unit.add(std::move(run));
  }
  for (const core::FabricExperimentConfig& config : plan.fabric) {
    core::FabricExperimentConfig c = config;
    std::vector<std::unique_ptr<verify::InvariantRegistry>> registries;
    std::vector<std::unique_ptr<Recorder>> recorders;
    for (unsigned i = 0; i < c.topology.n_switches(); ++i) {
      registries.push_back(std::make_unique<verify::InvariantRegistry>());
      if (c.routing == core::FabricRouting::TopologyFullPath) {
        registries.back()->set_allow_proactive_installs(true);
      }
      recorders.push_back(std::make_unique<Recorder>(registries.back().get(), false));
      c.observers.push_back(recorders.back().get());
    }
    const core::FabricExperimentResult r = core::run_fabric_experiment(c);
    for (std::size_t i = 0; i < registries.size(); ++i) {
      registries[i]->finalize(/*expect_all_delivered=*/r.drained);
      if (!registries[i]->ok()) {
        out.invariants_ok = false;
        ledger.problem("invariants (switch " + std::to_string(i) + "): " + registries[i]->report());
      }
      out.counts += recorders[i]->counts();
    }
    out.unit.add(outcome_of(r, plan.lossy));
  }
  return out;
}

// Shape guards: each workload must keep loading the layer it was chosen for.
void shape_guards(Workload w, const Plan& plan, const CheckPass& cp, Ledger& ledger) {
  const LayerCounts& n = cp.counts;
  auto guard = [&](bool ok, const std::string& what) {
    if (!ok) ledger.problem(std::string("shape guard (") + workload_name(w) + "): " + what);
    return ok;
  };
  bool ok = true;
  switch (w) {
    case Workload::PaperGrid: {
      std::uint64_t full = 0;
      for (std::size_t i = 0; i < plan.single.size(); ++i) {
        if (plan.single[i].buffer_capacity == 16) full += cp.unit.runs[i].full_frame_pkt_ins;
      }
      ok = guard(full > 0, "buffer-16 produced no full-frame packet_ins");
      break;
    }
    case Workload::TableChurn:
      ok = guard(n.misses == n.ingress, "not every packet missed the table");
      ok = guard(n.evictions > 0, "no rule was evicted") && ok;
      break;
    case Workload::FabricSteady:
      ok = guard(n.ingress > 0 && 20 * n.misses < n.ingress, "table miss share is not below 5%");
      break;
    case Workload::IncastTelemetry: {
      std::uint64_t rejected = 0;
      std::uint64_t stamps = 0;
      for (const RunOutcome& r : cp.unit.runs) {
        rejected += r.mmu_rejected;
        stamps += r.int_stamps;
      }
      ok = guard(rejected > 0, "the MMU refused no admission");
      ok = guard(n.egress_drops > 0, "no egress queue dropped") && ok;
      ok = guard(stamps > 0, "no INT stamp was applied") && ok;
      break;
    }
  }
  ledger.check(ok, "shape guards");
}

struct Timed {
  double wall_s = 0.0;
  UnitOutcome unit;
  bool ok = false;
};

Timed time_unit(const Plan& plan) {
  Timed t;
  const auto t0 = Clock::now();
  try {
    t.unit = run_unit(plan);
    t.ok = true;
  } catch (const std::exception& e) {
    std::printf("# run did not complete: %s\n", e.what());
  }
  t.wall_s = seconds_since(t0);
  return t;
}

// A timed (or otherwise repeated) unit must reproduce the check pass.
bool same_as(const Timed& t, const UnitOutcome& reference) {
  return t.ok && t.unit.fingerprint == reference.fingerprint && t.unit.completed &&
         t.unit.ledger_ok;
}

// Median host time of one unit's fixed cost per testbed, in reference-host
// nanoseconds, over at least 31 set-ups: every experiment is cut to one flow
// (testbed build, warm-up, drain, teardown). Set-ups run in ~50 ms chunks,
// each scaled by a speed probe taken just before it.
double measure_testbed_build_ns(const Plan& plan, SpeedProbe& speed) {
  const Plan sp = setup_plan(plan);
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (samples.size() < 31 || (seconds_since(t0) < 1.0 && samples.size() < 100000)) {
    const double scale = SpeedProbe::kReferenceSeconds / speed.seconds();
    const auto chunk = Clock::now();
    do {
      samples.push_back(time_unit(sp).wall_s * scale);
    } while (seconds_since(chunk) < 0.05);
  }
  return median(samples) * 1e9 / static_cast<double>(plan.single.size() + plan.fabric.size());
}

// The set-up probe's observer: at the first measured packet (single-switch
// warm-up packets are untracked) it prints the host clock and ends the
// process on the spot.
class FirstPacket final : public sdnbuf::verify::InvariantObserver {
 public:
  void on_packet_injected(const net::Packet& packet, sim::SimTime) override {
    if (packet.flow_id == sdnbuf::metrics::kUntrackedFlow) return;
    std::printf("%lld\n", static_cast<long long>(
                               std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   Clock::now().time_since_epoch())
                                   .count()));
    std::fflush(stdout);
    std::_Exit(0);
  }
  void on_packet_delivered(const net::Packet&, sim::SimTime) override {}
  void on_packet_dropped(const net::Packet&, const char*, sim::SimTime) override {}
  void on_buffer_store(std::uint32_t, const net::Packet&, bool, bool, sim::SimTime) override {}
  void on_buffer_release(std::uint32_t, const net::Packet&, sim::SimTime) override {}
  void on_buffer_expire(std::uint32_t, const net::Packet&, sim::SimTime) override {}
  void on_buffer_unit_retired(std::uint32_t, sim::SimTime) override {}
  void on_packet_in_sent(std::uint32_t, const net::Packet&, std::uint32_t, sim::SimTime) override {}
  void on_pkt_in_dropped(std::uint32_t, std::uint32_t, sim::SimTime) override {}
  void on_control_message(bool, const of::OfMessage&, sim::SimTime) override {}
  void on_channel_fault(bool, const of::OfMessage&, of::FaultKind, sim::SimTime) override {}
};

// --first-packet: builds the plan and runs its first experiment as
// run_unit would, until FirstPacket ends the process.
int run_to_first_packet(const Workload w, std::uint64_t seed) {
  const Plan plan = make_plan(w, seed);
  FirstPacket stop;
  if (!plan.single.empty()) {
    core::ExperimentConfig c = plan.single.front();
    c.observer = &stop;
    (void)core::run_experiment(c);
  } else if (!plan.fabric.empty()) {
    core::FabricExperimentConfig c = plan.fabric.front();
    c.observers.assign(c.topology.n_switches(), &stop);
    std::optional<sdnbuf::obs::FabricObservatory> observatory;
    if (plan.telemetry) c.observatory = &observatory.emplace();
    (void)core::run_fabric_experiment(c);
  }
  std::fprintf(stderr, "perfbench: no measured packet was injected\n");
  return 1;
}

// Host seconds from spawning `self --first-packet` to the first measured
// packet it reports (steady_clock is system-wide), or a negative value if
// the child fails.
double spawn_to_first_packet(const char* self, Workload w, std::uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string seed_text = std::to_string(seed);
  char* argv[] = {const_cast<char*>(self), const_cast<char*>("--workload"),
                  const_cast<char*>(workload_name(w)), const_cast<char*>("--seed"),
                  const_cast<char*>(seed_text.c_str()), const_cast<char*>("--first-packet"),
                  nullptr};
  pid_t pid = 0;
  const auto t0 = Clock::now();
  const int spawned = posix_spawn(&pid, self, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[64];
  for (ssize_t n; spawned == 0 && (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  char* end = nullptr;
  const long long ns = std::strtoll(out.c_str(), &end, 10);
  if (end == out.c_str() || *end != '\n') return -1.0;
  const Clock::time_point first{std::chrono::nanoseconds(ns)};
  return std::chrono::duration<double>(first - t0).count();
}

// setup_s in reference-host seconds: the median over at least 31 set-up
// probes, each scaled by a speed probe taken just before it. Negative if a
// probe failed.
double measure_setup(const char* self, Workload w, std::uint64_t seed, SpeedProbe& speed) {
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (samples.size() < 31 || (seconds_since(t0) < 1.0 && samples.size() < 1000)) {
    const double scale = SpeedProbe::kReferenceSeconds / speed.seconds();
    const double s = spawn_to_first_packet(self, w, seed);
    if (s <= 0.0) return -1.0;
    samples.push_back(s * scale);
  }
  return median(samples);
}

void print_metric(const std::string& name, double value, const std::string& unit) {
  std::printf("%-32s %.9g %s\n", name.c_str(), value, unit.c_str());
}

std::string json_result(bool correct, const Ledger& ledger, const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << ledger.attempted
     << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", ms[i].value);
    os << (i == 0 ? "" : ", ") << '"' << ms[i].name << "\": {\"value\": " << value
       << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_grid|table_churn|fabric_steady|"
                 "incast_telemetry --seed N [--seconds S] [--trace 0|1] [--commit ID] "
                 "[--fingerprint | --first-packet]\n");
    return 2;
  }
  const Args& args = *parsed;
  const Workload w = *args.workload;
  const char* name = workload_name(w);
  if (args.first_packet) return run_to_first_packet(w, args.seed);
  const Plan plan = make_plan(w, args.seed);

  if (args.fingerprint_only) {
    std::printf("%s %llu %s\n", name, static_cast<unsigned long long>(args.seed),
                hex(run_unit(plan).fingerprint).c_str());
    return 0;
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("# env nproc=%u compiler=\"%s\" build_type=%s commit=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              args.commit.c_str());

  Ledger ledger;
  bool reference_found = false;
  const auto reference = load_reference(reference_found);
  if (!reference_found) ledger.problem("reference file " PERFBENCH_REFERENCE " not readable");

  // Peak memory of one plain unit, before the check pass attaches its
  // verify observers and before the speed probe allocates its arena. The
  // unit is checked against the check pass below.
  const Timed first = time_unit(plan);
  const double rss_mb = peak_rss_mb();

  // --- correctness: check pass, reference fingerprints, held-out seed ---
  CheckPass cp;
  try {
    cp = check_pass(plan, ledger);
  } catch (const std::exception& e) {
    ledger.problem(std::string("check pass did not complete: ") + e.what());
    cp.invariants_ok = false;
    cp.unit.completed = false;
  }
  const UnitOutcome& truth = cp.unit;
  ledger.check(cp.invariants_ok && truth.completed, "check pass (invariants, completion)");
  shape_guards(w, plan, cp, ledger);
  if (const auto it = reference.find({name, args.seed}); it != reference.end()) {
    ledger.check(it->second == truth.fingerprint,
                 "fingerprint " + hex(truth.fingerprint) + " differs from reference " +
                     hex(it->second));
  } else {
    std::printf("# no reference fingerprint for seed %llu: checked for self-consistency only\n",
                static_cast<unsigned long long>(args.seed));
  }
  {
    const Timed held = time_unit(make_plan(w, kHeldOutSeed));
    const auto it = reference.find({name, kHeldOutSeed});
    ledger.check(held.ok && it != reference.end() && it->second == held.unit.fingerprint,
                 "held-out seed " + std::to_string(kHeldOutSeed) + " fingerprint " +
                     hex(held.unit.fingerprint) + " does not match the reference");
  }
  ledger.check(same_as(first, truth), "first unit did not reproduce the check pass");
  std::printf("# fingerprint %s\n", hex(truth.fingerprint).c_str());

  SpeedProbe speed;
  std::vector<Metric> metrics;
  const double deadline_s = args.seconds;
  if (args.trace == 0) {
    // --- timed runs, tracing off ---
    const double setup_s = measure_setup(argv[0], w, args.seed, speed);
    ledger.check(setup_s > 0.0, "a set-up probe process failed");
    // Each unit's rate is scaled by a speed probe taken right after it (see
    // speed_probe.hpp); the run reports the median.
    std::vector<double> rates;
    std::vector<double> raw_rates;
    std::vector<double> probes;
    const auto t0 = Clock::now();
    for (int unit = 0; unit < 3 || seconds_since(t0) < deadline_s; ++unit) {
      const Timed t = time_unit(plan);
      const double probe = speed.seconds();
      ledger.check(same_as(t, truth),
                   "timed run " + std::to_string(unit) + " did not reproduce the check pass");
      if (!t.ok) continue;
      const double rate = static_cast<double>(t.unit.packets_sent) / t.wall_s;
      raw_rates.push_back(rate);
      probes.push_back(probe);
      rates.push_back(rate * probe / SpeedProbe::kReferenceSeconds);
    }
    std::printf("# timed units: %zu; raw pkts_per_s median %.6g; speed probe median %.6g s "
                "(checksum %llu)\n",
                rates.size(), median(raw_rates), median(probes),
                static_cast<unsigned long long>(speed.checksum()));
    const double sent = static_cast<double>(truth.packets_sent);
    metrics = {
        {"pkts_per_s", "1/s", median(rates)},
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MB", rss_mb},
        {"sim_setup_ms_p50", "ms", truth.setup_ms.empty() ? 0.0 : truth.setup_ms.percentile(50)},
        {"sim_setup_ms_p90", "ms", truth.setup_ms.empty() ? 0.0 : truth.setup_ms.percentile(90)},
        {"sim_ctrl_bytes_per_pkt", "B/pkt",
         sent == 0 ? 0.0 : static_cast<double>(truth.control_bytes) / sent},
        {"sim_delivered_frac", "ratio",
         sent == 0 ? 0.0 : static_cast<double>(truth.packets_delivered) / sent},
    };
  } else {
    // --- traced run: untraced baseline (and observatory off/on pairs) ---
    Plan bare = plan;
    bare.telemetry = false;
    std::vector<double> with_obs;
    std::vector<double> without_obs;
    const auto t0 = Clock::now();
    while (with_obs.size() < 3 || seconds_since(t0) < deadline_s / 2) {
      const Timed t = time_unit(plan);
      ledger.check(same_as(t, truth), "untraced baseline run did not reproduce the check pass");
      with_obs.push_back(t.wall_s);
      if (plan.telemetry) {
        const Timed b = time_unit(bare);
        ledger.check(same_as(b, truth), "run without the observatory differs from the run with it");
        without_obs.push_back(b.wall_s);
      }
    }
    const double obs_pct =
        plan.telemetry ? (median(with_obs) / median(without_obs) - 1.0) * 100.0 : 0.0;
    TracedRun traced;
    try {
      traced = traced_run(plan, median(with_obs), obs_pct, measure_testbed_build_ns(plan, speed));
      bool same = traced.fingerprints.size() == truth.runs.size();
      for (std::size_t i = 0; same && i < truth.runs.size(); ++i) {
        same = traced.fingerprints[i] == truth.runs[i].fingerprint;
      }
      ledger.check(same, "traced run fingerprint differs from the untraced run");
    } catch (const std::exception& e) {
      ledger.check(false, std::string("traced run did not complete: ") + e.what());
    }
    metrics = std::move(traced.metrics);
  }

  std::printf("# checks: %llu attempted, %llu failed, failed_frac=%.6g\n",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed),
              ledger.attempted == 0
                  ? 0.0
                  : static_cast<double>(ledger.failed) / static_cast<double>(ledger.attempted));
  for (const std::string& p : ledger.problems) std::printf("# FAIL %s\n", p.c_str());
  for (const Metric& m : metrics) print_metric(m.name, m.value, m.unit);
  const bool correct = ledger.failed == 0 && ledger.problems.empty();
  std::printf("%s\n", json_result(correct, ledger, metrics).c_str());
  return 0;
}
