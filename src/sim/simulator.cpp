#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>

#include "util/check.hpp"

namespace sdnbuf::sim {

void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_slot(slot_, generation_);
}

bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->slot_matches(slot_, generation_);
}

std::uint32_t Simulator::grow_slab(SimTime when) {
  SDNBUF_CHECK_MSG(when >= now_, "cannot schedule into the past");
  SDNBUF_CHECK(free_head_ == kNoFree);
  SDNBUF_CHECK_MSG(slots_.size() < kNoFree, "event slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventHandle Simulator::enqueue(SimTime when, std::uint32_t slot) {
  const std::uint32_t generation = slots_[slot].generation;
  heap_.push_back(Scheduled{when, next_seq_++, slot, generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_pending_;
  return EventHandle{this, slot, generation};
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  // The bump invalidates every outstanding handle and heap entry for the
  // slot's previous life before the free list can hand it out again.
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
}

bool Simulator::cancel_slot(std::uint32_t slot, std::uint32_t generation) {
  if (!slot_matches(slot, generation)) return false;
  release_slot(slot);
  SDNBUF_CHECK(live_pending_ > 0);
  --live_pending_;
  ++cancelled_in_heap_;
  maybe_compact();
  return true;
}

void Simulator::pop_front() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void Simulator::maybe_compact() {
  // Heavy cancel traffic (echo timers, resend backoff) must not bloat the
  // heap: once tombstones outnumber live entries, filter and re-heapify in
  // one O(n) pass.
  if (heap_.size() < kCompactMinEntries || cancelled_in_heap_ * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const Scheduled& e) { return stale(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  cancelled_in_heap_ = 0;
}

bool Simulator::pop_and_run() {
  // The heap may hold cancelled tombstones; skip them.
  while (!heap_.empty()) {
    const Scheduled ev = heap_.front();
    pop_front();
    if (stale(ev)) {
      SDNBUF_CHECK(cancelled_in_heap_ > 0);
      --cancelled_in_heap_;
      continue;
    }
    // Move the callback out and recycle the slot *before* running, so the
    // callback can freely schedule into the just-freed slot.
    EventFn fn = std::move(slots_[ev.slot].fn);
    release_slot(ev.slot);
    SDNBUF_CHECK(live_pending_ > 0);
    --live_pending_;
    SDNBUF_CHECK(ev.when >= now_);
    now_ = ev.when;
    ++executed_;
    if (profile_sink_ == nullptr) {
      fn();
    } else {
      ScopedProfileTag::begin_event();
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      profile_sink_->on_event(ScopedProfileTag::event_tag(), wall_s);
    }
    return true;
  }
  return false;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (pop_and_run()) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime until) {
  SDNBUF_CHECK(until >= now_);
  std::size_t n = 0;
  while (!heap_.empty()) {
    // Skip tombstones without advancing time.
    if (stale(heap_.front())) {
      pop_front();
      SDNBUF_CHECK(cancelled_in_heap_ > 0);
      --cancelled_in_heap_;
      continue;
    }
    if (heap_.front().when > until) break;
    if (pop_and_run()) ++n;
  }
  now_ = until;
  return n;
}

bool Simulator::step() { return pop_and_run(); }

}  // namespace sdnbuf::sim
