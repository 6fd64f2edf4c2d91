// Seeded scenario fuzzer for the invariant-checking layer.
//
// Samples randomized experiment configurations, runs each under all three
// buffer mechanisms with an InvariantRegistry attached, and fails loudly
// (exit 1) with the offending seed and full parameter dump when any
// invariant is violated or the mechanisms disagree on what was delivered.
//
// Reproduce a reported failure with:
//   fuzz_scenarios --seed <base_seed> --runs 1 --offset <failing_index>
// (or simply --seed <base_seed + failing_index> --runs 1: scenario i of a
// run with base seed S is sample_scenario(S + i)).
#include <cstdio>
#include <optional>
#include <string>

#include "util/cli.hpp"
#include "verify/scenario_gen.hpp"

int main(int argc, char** argv) {
  using namespace sdnbuf;

  util::CliFlags flags(argc, argv, {"runs", "seed", "offset", "verbose", "force-faults",
                                    "force-fabric", "force-link-faults", "force-telemetry",
                                    "force-mmu", "force-eviction"});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\nusage: fuzz_scenarios [--runs N] [--seed S] [--offset K] "
                         "[--verbose] [--force-faults] [--force-fabric] [--force-link-faults] "
                         "[--force-telemetry] [--force-mmu] "
                         "[--force-eviction lru|fifo|random]\n",
                 flags.error().c_str());
    return 2;
  }
  const long long runs = flags.get_int("runs", 50);
  const long long base_seed = flags.get_int("seed", 1);
  const long long offset = flags.get_int("offset", 0);
  const bool verbose = flags.get_bool("verbose", false);
  const bool force_faults = flags.get_bool("force-faults", false);
  const bool force_fabric = flags.get_bool("force-fabric", false);
  const bool force_link_faults = flags.get_bool("force-link-faults", false);
  const bool force_telemetry = flags.get_bool("force-telemetry", false);
  const bool force_mmu = flags.get_bool("force-mmu", false);
  const std::string eviction_name = flags.get_string("force-eviction", "");
  std::optional<sw::EvictionPolicy> force_eviction;
  if (!eviction_name.empty()) {
    force_eviction = sw::parse_eviction_policy(eviction_name);
    if (!force_eviction) {
      std::fprintf(stderr, "fuzz_scenarios: --force-eviction takes lru, fifo or random\n");
      return 2;
    }
  }
  if (runs < 1) {
    std::fprintf(stderr, "fuzz_scenarios: --runs must be a positive integer\n");
    return 2;
  }

  int failed = 0;
  for (long long i = offset; i < offset + runs; ++i) {
    const verify::Scenario scenario =
        verify::sample_scenario(static_cast<std::uint64_t>(base_seed + i), force_faults,
                                force_fabric, force_link_faults, force_telemetry, force_mmu,
                                force_eviction);
    const verify::ScenarioOutcome outcome = verify::run_scenario(scenario);
    if (outcome.ok()) {
      if (verbose) {
        std::printf("[%lld] ok   %s\n", i, scenario.describe().c_str());
        for (const auto& mode : outcome.modes) {
          std::printf("      %-18s events=%llu delivered=%llu/%llu drained=%d\n",
                      sw::buffer_mode_name(mode.mode),
                      static_cast<unsigned long long>(mode.events),
                      static_cast<unsigned long long>(mode.result.packets_delivered),
                      static_cast<unsigned long long>(mode.result.packets_sent),
                      mode.result.drained ? 1 : 0);
        }
        if (scenario.has_fabric()) {
          std::printf("      fabric             events=%llu delivered=%llu (3 modes)\n",
                      static_cast<unsigned long long>(outcome.fabric_events),
                      static_cast<unsigned long long>(outcome.fabric_delivered));
        }
      }
      continue;
    }
    ++failed;
    std::printf("[%lld] FAIL %s\n", i, scenario.describe().c_str());
    for (const auto& failure : outcome.failures) {
      std::printf("      %s\n", failure.c_str());
    }
    std::printf("      reproduce: fuzz_scenarios --seed %lld --runs 1%s%s%s%s%s%s%s\n",
                base_seed + i, force_faults ? " --force-faults" : "",
                force_fabric ? " --force-fabric" : "",
                force_link_faults ? " --force-link-faults" : "",
                force_telemetry ? " --force-telemetry" : "",
                force_mmu ? " --force-mmu" : "", force_eviction ? " --force-eviction " : "",
                eviction_name.c_str());
  }

  std::printf("fuzz_scenarios: %lld scenario(s) x 3 modes, %d failure(s)\n", runs, failed);
  return failed == 0 ? 0 : 1;
}
