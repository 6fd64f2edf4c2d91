#include "speed_probe.hpp"

#include <chrono>
#include <list>
#include <map>
#include <memory_resource>

namespace perfbench {

SpeedProbe::SpeedProbe() : arena_(kArenaBytes) {}

double SpeedProbe::seconds() {
  struct Node {
    std::uint64_t words[8];
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t acc = 0;
  {
    // A private arena, so that the layout is the same on every call and in
    // every process whatever the global heap looks like.
    std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                              std::pmr::null_memory_resource());
    std::pmr::list<Node> nodes(&arena);
    // Insert at a scattered position each time, so that list order and
    // address order differ and the walk chases pointers.
    auto at = nodes.end();
    for (std::uint64_t i = 0; i < 20000; ++i) {
      at = nodes.insert(at, Node{{i}});
      if (i % 7 == 0) at = nodes.begin();
      if (i % 3 == 0 && at != nodes.end()) ++at;
    }
    for (std::uint64_t pass = 0; pass < 8; ++pass) {
      for (const Node& n : nodes) acc += n.words[0] ^ pass;
    }
    std::pmr::map<std::uint64_t, std::uint64_t> table(&arena);
    constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t k = 0; k < 30000; ++k) table[k * kMix] = k;
    for (std::uint64_t k = 0; k < 30000; k += 2) table.erase(k * kMix);
    acc += table.size();
  }
  checksum_ += acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace perfbench
