// Insert-only open-addressing hash map.
//
// std::unordered_map pays one node allocation per insert, which dominates
// hot paths that insert once per simulated packet (the telemetry ledger
// does exactly that). This map stores slots contiguously with linear
// probing and never supports erase, so insertion is an amortized array
// write and lookups stay cache-friendly.
//
// Contract:
//   - no erase; clear() drops everything at once
//   - pointers/references returned by find()/try_emplace() are invalidated
//     by any later insertion (the table may grow)
//   - iteration order is unspecified (sort at export time if determinism
//     of output matters)
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"  // mix64: the canonical integer-key hash finalizer

namespace sdnbuf::util {

// Hash for integer keys such as flow ids.
struct Mix64Hash {
  std::size_t operator()(std::uint64_t k) const { return static_cast<std::size_t>(mix64(k)); }
};

template <typename K, typename V, typename Hash>
class FlatMap {
 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    // Size the table so n entries stay under the load-factor ceiling.
    while (cap * kMaxLoadNum < n * kLoadDen) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  // Pointer to the value for `key`, or nullptr when absent.
  [[nodiscard]] V* find(const K& key) {
    return const_cast<V*>(static_cast<const FlatMap*>(this)->find(key));
  }
  [[nodiscard]] const V* find(const K& key) const {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.kv.first == key) return &s.kv.second;
    }
  }

  // Value for `key`, default-constructing it on first sight. Second member
  // reports whether an insertion happened (mirrors map::try_emplace).
  std::pair<V*, bool> try_emplace(const K& key) {
    if (slots_.empty() || (size_ + 1) * kLoadDen > slots_.size() * kMaxLoadNum) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.kv.first = key;
        ++size_;
        return {&s.kv.second, true};
      }
      if (s.kv.first == key) return {&s.kv.second, false};
    }
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  // at()/count() for test convenience; at() requires the key to exist.
  [[nodiscard]] const V& at(const K& key) const {
    const V* v = find(key);
    SDNBUF_CHECK_MSG(v != nullptr, "FlatMap::at: missing key");
    return *v;
  }
  [[nodiscard]] std::size_t count(const K& key) const { return find(key) != nullptr ? 1 : 0; }

  // Visits every (key, value) pair in unspecified order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.used) f(s.kv.first, s.kv.second);
    }
  }

 private:
  struct Slot {
    std::pair<K, V> kv{};
    bool used = false;
  };
  static constexpr std::size_t kMinCapacity = 64;
  // Grow past 7/8 load: linear probing degrades sharply beyond that.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kLoadDen = 8;

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    const std::size_t mask = new_capacity - 1;
    for (Slot& s : old) {
      if (!s.used) continue;
      for (std::size_t i = Hash{}(s.kv.first) & mask;; i = (i + 1) & mask) {
        if (!slots_[i].used) {
          slots_[i].used = true;
          slots_[i].kv = std::move(s.kv);
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace sdnbuf::util
