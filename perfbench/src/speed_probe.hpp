// Host-speed probe for normalizing host-time metrics.
//
// The benchmark runs on shared machines whose speed drifts in steps of up to
// ±20% that last minutes (other tenants' load on caches, memory and cores).
// Raw host times inherit that drift: 10 runs of one workload spread by ~25%
// between their quartiles. The probe times a fixed kernel that shares no
// code with the simulator but has its memory behaviour (a walk over a
// scattered linked list and an ordered map's inserts and erases) right next
// to each measurement. Its nodes come from a private arena, so its layout,
// and with it its time, does not depend on the state of the process heap.
// A host time multiplied by kReferenceSeconds / probe time reads as seconds
// on the reference host; the drift cancels while simulator speed-ups show
// 1:1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  // The kernel's host time on the reference host (4-vCPU Xeon KVM guest),
  // the unit that normalized times are expressed in.
  static constexpr double kReferenceSeconds = 0.0073;

  SpeedProbe();

  // Runs the kernel once and returns its host time in seconds.
  double seconds();

  // Folded results of every kernel run (printed, so the work is kept).
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  static constexpr std::size_t kArenaBytes = std::size_t{8} << 20;
  std::vector<std::byte> arena_;
  std::uint64_t checksum_ = 0;
};

}  // namespace perfbench
