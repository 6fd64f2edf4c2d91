// FIFO queue over a ring of slots that keeps its capacity: it grows by
// doubling when full and never shrinks, so once a queue has seen its
// high-water mark, pushing and popping allocate nothing (std::deque frees and
// reallocates blocks as a queue cycles).
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace sdnbuf::util {

template <class T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] T& front() { return *slots_[head_]; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[wrap(head_ + size_)].emplace(std::move(value));
    ++size_;
  }

  // Removes the oldest element and hands it to the caller.
  T pop_front() {
    T value = std::move(*slots_[head_]);
    slots_[head_].reset();
    head_ = wrap(head_ + 1);
    --size_;
    return value;
  }

 private:
  // Capacity is a power of two, so wrapping is a mask.
  [[nodiscard]] std::size_t wrap(std::size_t i) const { return i & (slots_.size() - 1); }

  void grow() {
    std::vector<std::optional<T>> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i].emplace(std::move(*slots_[wrap(head_ + i)]));
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<std::optional<T>> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sdnbuf::util
