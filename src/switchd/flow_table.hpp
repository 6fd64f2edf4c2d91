// The switch flow table.
//
// Supports what the testbed and the discussion section need:
//   - priority-ordered wildcard matching (linear scan, highest priority wins)
//   - an exact-match fast path: a hash index keyed on the of::Match itself
//     (no per-packet encoding), so the reactive micro-flow rules the
//     controller installs are found in O(1), mirroring OVS's exact-match
//     datapath cache. Rules sharing one exact match at different priorities
//     hang off the same index slot, highest priority first.
//   - idle and hard timeouts
//   - a capacity limit with a pluggable eviction policy (§VI.B: rules
//     "kicked out from the size limited flow table"; the related work —
//     LRU caching [13], flow-driven caching [17], adaptive caching [29] —
//     is all about this choice), reported with FlowRemovedReason::Eviction.
//     LRU and FIFO keep their victims in an intrusive order sorted by
//     (last_used or installed_at, install sequence), so installing into a
//     full table is O(1) while simulated time moves forward (DESIGN.md §9.5).
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "openflow/actions.hpp"
#include "openflow/constants.hpp"
#include "openflow/match.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace sdnbuf::sw {

// Victim selection when the table is full.
enum class EvictionPolicy {
  Lru,     // least recently used (OVS-like default)
  Fifo,    // oldest installed
  Random,  // uniform random victim
};

[[nodiscard]] const char* eviction_policy_name(EvictionPolicy policy);

// Inverse of eviction_policy_name ("lru", "fifo", "random").
[[nodiscard]] std::optional<EvictionPolicy> parse_eviction_policy(const std::string& name);

struct FlowEntry {
  of::Match match;
  std::uint16_t priority = 0;
  of::ActionList actions;
  std::uint64_t cookie = 0;
  std::uint16_t idle_timeout_s = 0;  // 0 = never
  std::uint16_t hard_timeout_s = 0;
  std::uint16_t flags = 0;  // kFlowModSendFlowRem etc.
  sim::SimTime installed_at;
  sim::SimTime last_used;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

struct RemovedEntry {
  FlowEntry entry;
  of::FlowRemovedReason reason = of::FlowRemovedReason::Delete;
};

class FlowTable {
 public:
  explicit FlowTable(std::size_t capacity, EvictionPolicy policy = EvictionPolicy::Lru,
                     std::uint64_t rng_seed = 1);
  // Nodes link to each other by address: a copy would alias the original.
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  // Highest-priority matching entry, or nullptr. Updates last_used and the
  // packet/byte counters of the hit entry.
  [[nodiscard]] FlowEntry* lookup(const net::Packet& p, std::uint16_t in_port, sim::SimTime now);

  // Read-only lookup (no counter updates).
  [[nodiscard]] const FlowEntry* peek(const net::Packet& p, std::uint16_t in_port) const;

  struct AddResult {
    bool replaced = false;            // an identical (match, priority) entry existed
    std::vector<RemovedEntry> evicted;  // victims if the table was full
  };

  // Installs / overwrites an entry (flow_mod ADD semantics).
  AddResult add(FlowEntry entry, sim::SimTime now);

  // flow_mod DELETE (non-strict: removes every entry subsumed by `match`) /
  // DELETE_STRICT (exact match+priority). Returns removed entries.
  std::vector<RemovedEntry> remove(const of::Match& match, std::optional<std::uint16_t> priority,
                                   bool strict);

  // Removes entries whose idle or hard timeout has elapsed at `now`.
  std::vector<RemovedEntry> expire(sim::SimTime now);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  // Iteration for diagnostics/tests, in install order (a replace keeps an
  // entry's place). remove() and expire() report in this order too.
  [[nodiscard]] std::vector<const FlowEntry*> entries() const;

 private:
  // One installed rule plus the links the table threads through it.
  struct Node {
    FlowEntry entry;
    std::list<Node>::iterator self;  // this node's place in entries_
    std::uint64_t seq = 0;           // install sequence; a replace keeps it
    Node* older = nullptr;           // eviction order (LRU/FIFO only)
    Node* newer = nullptr;
    Node* lower = nullptr;  // next exact rule with the same match, lower priority
  };
  using NodeList = std::list<Node>;
  using NodeIt = NodeList::iterator;

  [[nodiscard]] static bool is_exact(const of::Match& m) { return m.wildcards == 0; }

  [[nodiscard]] Node* best_match(const net::Packet& p, std::uint16_t in_port) const;
  [[nodiscard]] Node* find_rule(const of::Match& match, std::uint16_t priority) const;
  void index(Node& n);
  void unindex(Node& n);
  RemovedEntry take(Node& n, of::FlowRemovedReason reason);
  Node& find_victim();

  // Eviction order: oldest_ is the victim. Unused under Random.
  [[nodiscard]] bool ordered() const { return policy_ != EvictionPolicy::Random; }
  [[nodiscard]] bool order_less(const Node& a, const Node& b) const;
  void order_insert(Node& n);
  void order_unlink(Node& n);

  std::size_t capacity_;
  EvictionPolicy policy_;
  util::Rng rng_;
  NodeList entries_;  // install order
  std::unordered_map<of::Match, Node*, of::MatchHash> exact_index_;
  // Scanned in order, so on a priority tie the first match wins. A replace
  // moves the rule to the back.
  std::vector<Node*> wildcard_entries_;
  Node* oldest_ = nullptr;
  Node* newest_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace sdnbuf::sw
