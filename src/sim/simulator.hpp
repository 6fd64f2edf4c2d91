// Discrete-event simulation core.
//
// A `Simulator` owns the event queue and the clock. Components schedule
// callbacks at absolute or relative times; events at equal times execute in
// scheduling order (a monotonically increasing sequence number breaks ties),
// which makes runs fully deterministic.
//
// Hot-path design: callbacks live in a slab of pooled slots (recycled via a
// free list), so scheduling an event performs no per-event heap allocation —
// neither for the handle (a {slot, generation} pair) nor, for typical
// lambdas, for the callback itself (`EventFn` is small-buffer-optimized).
// schedule/schedule_at forward the callable and build it directly in its
// slot (the free-list pop is inline), then move it once more, out of the
// slot, just before it runs: two move constructions per event, through
// Link::send too.
// The priority queue stores only 24-byte {when, seq, slot, generation}
// entries; cancelled entries become tombstones that are skipped on pop and
// compacted away whenever they outnumber the live entries.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/check.hpp"
#include "util/small_function.hpp"

namespace sdnbuf::sim {

// Move-only, small-buffer-optimized callback: lambdas capturing up to 64
// bytes (a handful of pointers and values) schedule without touching the
// heap; larger captures fall back to one allocation.
using EventFn = util::SmallFunction<void(), 64>;

class Simulator;

// Wall-time attribution sink for the event loop (implemented by
// obs::EventLoopProfiler). When installed via Simulator::set_profile_sink,
// every executed callback is timed with steady_clock and reported together
// with the component tag active while it ran. When absent — the default —
// the dispatch loop pays a single pointer comparison per event.
class ProfileSink {
 public:
  virtual ~ProfileSink() = default;
  virtual void on_event(const char* tag, double wall_seconds) = 0;
};

// Component attribution for the profiler: a callback that opens a
// `ScopedProfileTag` at its top is attributed to that tag. The *outermost*
// tag of an event wins (the component whose callback ran), even though the
// scope itself has unwound by the time the dispatch loop reads it — the
// first tag opened per event is latched until the loop collects it.
// Untagged callbacks land under "(untagged)". The tag is a thread-local raw
// pointer, so the string must outlive the event — components use string
// literals or their own stable name storage.
class ScopedProfileTag {
 public:
  explicit ScopedProfileTag(const char* tag) noexcept : previous_(current_) {
    current_ = tag;
    if (event_first_ == nullptr) event_first_ = tag;
  }
  ~ScopedProfileTag() { current_ = previous_; }
  ScopedProfileTag(const ScopedProfileTag&) = delete;
  ScopedProfileTag& operator=(const ScopedProfileTag&) = delete;

  [[nodiscard]] static const char* current() noexcept { return current_; }

 private:
  friend class Simulator;
  // Dispatch-loop protocol: clear before the callback, read after.
  static void begin_event() noexcept { event_first_ = nullptr; }
  [[nodiscard]] static const char* event_tag() noexcept { return event_first_; }

  // Constant-initialized inline thread_locals: no TLS init wrapper, so the
  // inline ctor/dtor compile to plain TP-relative loads and stores.
  inline static thread_local const char* current_ = nullptr;
  inline static thread_local const char* event_first_ = nullptr;
  const char* previous_;
};

// Handle for cancelling a scheduled event. Default-constructed handles are
// inert; cancelling an already-fired event is a no-op (the slot's generation
// counter has moved on, so a stale handle can never touch a recycled slot).
// Handles are trivially copyable but must not outlive their Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  [[nodiscard]] bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedules `fn` to run at now() + delay (delay >= 0).
  template <class F>
  EventHandle schedule(SimTime delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at an absolute time (>= now()). The callable is built
  // once, in its slot; an EventFn must be passed as an rvalue and must not
  // be empty.
  template <class F>
  EventHandle schedule_at(SimTime when, F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      SDNBUF_CHECK_MSG(static_cast<bool>(fn), "cannot schedule an empty callback");
    }
    const std::uint32_t slot = acquire_slot(when);
    slots_[slot].fn.assign(std::forward<F>(fn));
    return enqueue(when, slot);
  }

  // Runs events until the queue is empty. Returns the number executed.
  std::size_t run();

  // Runs events with time <= until; leaves later events queued and advances
  // the clock to `until`. Returns the number executed.
  std::size_t run_until(SimTime until);

  // Executes the single earliest event, if any. Returns true if one ran.
  bool step();

  [[nodiscard]] bool empty() const { return live_pending_ == 0; }
  [[nodiscard]] std::size_t pending_events() const { return live_pending_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  // Heap entries including cancelled tombstones not yet popped or compacted
  // (introspection for tests and diagnostics).
  [[nodiscard]] std::size_t queued_entries() const { return heap_.size(); }

  // Installs (or with nullptr removes) the wall-time profiler sink. Profiling
  // never touches sim time or event order — results stay bit-identical.
  void set_profile_sink(ProfileSink* sink) { profile_sink_ = sink; }
  [[nodiscard]] ProfileSink* profile_sink() const { return profile_sink_; }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNoFree = ~std::uint32_t{0};
  // Below this heap size, tombstones are too cheap to be worth compacting.
  static constexpr std::size_t kCompactMinEntries = 64;

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoFree;
  };
  struct Scheduled {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  // std::push_heap/pop_heap keep the comparator's "largest" element first;
  // with this ordering that is the earliest (when, seq).
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool pop_and_run();
  // Pops the free list inline; a time before now() (so a negative delay
  // too) and an empty free list go to grow_slab(), which checks `when` and
  // appends a slot. enqueue() then pushes the slot's heap entry.
  std::uint32_t acquire_slot(SimTime when) {
    const std::uint32_t slot = free_head_;
    if (slot == kNoFree || when < now_) return grow_slab(when);
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  std::uint32_t grow_slab(SimTime when);
  EventHandle enqueue(SimTime when, std::uint32_t slot);
  void release_slot(std::uint32_t slot);
  bool cancel_slot(std::uint32_t slot, std::uint32_t generation);
  [[nodiscard]] bool slot_matches(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }
  [[nodiscard]] bool stale(const Scheduled& e) const {
    return slots_[e.slot].generation != e.generation;
  }
  void pop_front();
  void maybe_compact();

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_pending_ = 0;     // scheduled minus cancelled minus executed
  std::size_t cancelled_in_heap_ = 0;  // tombstones still sitting in heap_
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
  std::vector<Scheduled> heap_;
  ProfileSink* profile_sink_ = nullptr;
};

}  // namespace sdnbuf::sim
