#include "switchd/flow_table.hpp"

#include <algorithm>
#include <iterator>

#include "util/check.hpp"

namespace sdnbuf::sw {

const char* eviction_policy_name(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::Lru: return "lru";
    case EvictionPolicy::Fifo: return "fifo";
    case EvictionPolicy::Random: return "random";
  }
  return "?";
}

std::optional<EvictionPolicy> parse_eviction_policy(const std::string& name) {
  for (const EvictionPolicy policy :
       {EvictionPolicy::Lru, EvictionPolicy::Fifo, EvictionPolicy::Random}) {
    if (name == eviction_policy_name(policy)) return policy;
  }
  return std::nullopt;
}

FlowTable::FlowTable(std::size_t capacity, EvictionPolicy policy, std::uint64_t rng_seed)
    : capacity_(capacity), policy_(policy), rng_(rng_seed) {
  SDNBUF_CHECK_MSG(capacity_ >= 1, "flow table needs capacity");
}

FlowTable::Node* FlowTable::best_match(const net::Packet& p, std::uint16_t in_port) const {
  // Exact-match fast path: the key is the packet's own exact match, and the
  // slot's first rule has the highest priority among those sharing it.
  Node* best = nullptr;
  if (const auto it = exact_index_.find(of::Match::exact_from(p, in_port));
      it != exact_index_.end()) {
    best = it->second;
  }
  // Wildcard entries can still win on priority.
  for (Node* n : wildcard_entries_) {
    if (best && n->entry.priority <= best->entry.priority) continue;
    if (n->entry.match.matches(p, in_port)) best = n;
  }
  return best;
}

FlowEntry* FlowTable::lookup(const net::Packet& p, std::uint16_t in_port, sim::SimTime now) {
  ++lookups_;
  Node* best = best_match(p, in_port);
  if (best == nullptr) return nullptr;
  ++hits_;
  FlowEntry& e = best->entry;
  e.last_used = now;
  ++e.packet_count;
  e.byte_count += p.frame_size;
  if (policy_ == EvictionPolicy::Lru) {
    order_unlink(*best);
    order_insert(*best);
  }
  return &e;
}

const FlowEntry* FlowTable::peek(const net::Packet& p, std::uint16_t in_port) const {
  const Node* best = best_match(p, in_port);
  return best != nullptr ? &best->entry : nullptr;
}

FlowTable::Node* FlowTable::find_rule(const of::Match& match, std::uint16_t priority) const {
  if (is_exact(match)) {
    const auto it = exact_index_.find(match);
    if (it == exact_index_.end()) return nullptr;
    for (Node* n = it->second; n != nullptr; n = n->lower) {
      if (n->entry.priority == priority) return n;
    }
    return nullptr;
  }
  for (Node* n : wildcard_entries_) {
    if (n->entry.match == match && n->entry.priority == priority) return n;
  }
  return nullptr;
}

void FlowTable::index(Node& n) {
  if (!is_exact(n.entry.match)) {
    wildcard_entries_.push_back(&n);
    return;
  }
  // Keep the slot's chain in descending priority (find_rule guarantees no
  // two rules share a match and a priority).
  Node** link = &exact_index_.try_emplace(n.entry.match, nullptr).first->second;
  while (*link != nullptr && (*link)->entry.priority > n.entry.priority) link = &(*link)->lower;
  n.lower = *link;
  *link = &n;
}

void FlowTable::unindex(Node& n) {
  if (!is_exact(n.entry.match)) {
    const auto pos = std::find(wildcard_entries_.begin(), wildcard_entries_.end(), &n);
    SDNBUF_CHECK(pos != wildcard_entries_.end());
    wildcard_entries_.erase(pos);
    return;
  }
  const auto it = exact_index_.find(n.entry.match);
  SDNBUF_CHECK(it != exact_index_.end());
  Node** link = &it->second;
  while (*link != &n) {
    SDNBUF_CHECK(*link != nullptr);
    link = &(*link)->lower;
  }
  *link = n.lower;
  n.lower = nullptr;
  if (it->second == nullptr) exact_index_.erase(it);
}

bool FlowTable::order_less(const Node& a, const Node& b) const {
  const auto key = [this](const Node& n) {
    return policy_ == EvictionPolicy::Lru ? n.entry.last_used : n.entry.installed_at;
  };
  const sim::SimTime ka = key(a);
  const sim::SimTime kb = key(b);
  return ka < kb || (ka == kb && a.seq < b.seq);
}

void FlowTable::order_insert(Node& n) {
  // Step back from the newest end past every larger key: O(1) while
  // simulated time is monotone, still exact when it is not.
  Node* before = newest_;
  while (before != nullptr && order_less(n, *before)) before = before->older;
  Node* after = before != nullptr ? before->newer : oldest_;
  n.older = before;
  n.newer = after;
  if (before != nullptr) {
    before->newer = &n;
  } else {
    oldest_ = &n;
  }
  if (after != nullptr) {
    after->older = &n;
  } else {
    newest_ = &n;
  }
}

void FlowTable::order_unlink(Node& n) {
  if (n.older != nullptr) {
    n.older->newer = n.newer;
  } else {
    oldest_ = n.newer;
  }
  if (n.newer != nullptr) {
    n.newer->older = n.older;
  } else {
    newest_ = n.older;
  }
  n.older = n.newer = nullptr;
}

RemovedEntry FlowTable::take(Node& n, of::FlowRemovedReason reason) {
  unindex(n);
  if (ordered()) order_unlink(n);
  RemovedEntry removed{std::move(n.entry), reason};
  entries_.erase(n.self);
  return removed;
}

FlowTable::Node& FlowTable::find_victim() {
  SDNBUF_CHECK(!entries_.empty());
  if (ordered()) return *oldest_;
  auto victim = entries_.begin();
  std::advance(victim, static_cast<std::ptrdiff_t>(rng_.next_below(entries_.size())));
  return *victim;
}

FlowTable::AddResult FlowTable::add(FlowEntry entry, sim::SimTime now) {
  AddResult result;
  entry.installed_at = now;
  entry.last_used = now;

  // ADD overwrites an identical (match, priority) entry in place: it keeps
  // its install sequence, and a wildcard rule moves to the back of the scan.
  if (Node* same = find_rule(entry.match, entry.priority); same != nullptr) {
    unindex(*same);
    same->entry = std::move(entry);
    index(*same);
    if (ordered()) {
      order_unlink(*same);
      order_insert(*same);
    }
    result.replaced = true;
    return result;
  }

  while (entries_.size() >= capacity_) {
    ++evictions_;
    result.evicted.push_back(take(find_victim(), of::FlowRemovedReason::Eviction));
  }

  Node& n = entries_.emplace_back();
  n.entry = std::move(entry);
  n.self = std::prev(entries_.end());
  n.seq = next_seq_++;
  index(n);
  if (ordered()) order_insert(n);
  return result;
}

std::vector<RemovedEntry> FlowTable::remove(const of::Match& match,
                                            std::optional<std::uint16_t> priority, bool strict) {
  std::vector<RemovedEntry> removed;
  for (auto it = entries_.begin(); it != entries_.end();) {
    Node& n = *it++;
    const FlowEntry& e = n.entry;
    const bool hit = strict ? (e.match == match && (!priority || e.priority == *priority))
                            : match.subsumes(e.match);
    if (hit) removed.push_back(take(n, of::FlowRemovedReason::Delete));
  }
  return removed;
}

std::vector<RemovedEntry> FlowTable::expire(sim::SimTime now) {
  std::vector<RemovedEntry> removed;
  for (auto it = entries_.begin(); it != entries_.end();) {
    Node& n = *it++;
    const FlowEntry& e = n.entry;
    if (e.hard_timeout_s != 0 && now - e.installed_at >= sim::SimTime::seconds(e.hard_timeout_s)) {
      removed.push_back(take(n, of::FlowRemovedReason::HardTimeout));
    } else if (e.idle_timeout_s != 0 &&
               now - e.last_used >= sim::SimTime::seconds(e.idle_timeout_s)) {
      removed.push_back(take(n, of::FlowRemovedReason::IdleTimeout));
    }
  }
  return removed;
}

std::vector<const FlowEntry*> FlowTable::entries() const {
  std::vector<const FlowEntry*> out;
  out.reserve(entries_.size());
  for (const Node& n : entries_) out.push_back(&n.entry);
  return out;
}

}  // namespace sdnbuf::sw
