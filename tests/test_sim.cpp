// Unit tests for the discrete-event engine: time arithmetic, event ordering,
// cancellation, run_until semantics, and the multi-server queueing station.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace sdnbuf::sim {
namespace {

TEST(SimTime, ConstructorsAndAccessors) {
  EXPECT_EQ(SimTime::microseconds(3).ns(), 3000);
  EXPECT_EQ(SimTime::milliseconds(2).ns(), 2'000'000);
  EXPECT_EQ(SimTime::seconds(1).ns(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(SimTime::milliseconds(1500).sec(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::microseconds(1500).ms(), 1.5);
}

TEST(SimTime, FromSecondsRounds) {
  EXPECT_EQ(SimTime::from_seconds(1e-9).ns(), 1);
  EXPECT_EQ(SimTime::from_seconds(1.4e-9).ns(), 1);
  EXPECT_EQ(SimTime::from_seconds(1.6e-9).ns(), 2);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::milliseconds(3);
  const SimTime b = SimTime::milliseconds(1);
  EXPECT_EQ((a + b).ns(), 4'000'000);
  EXPECT_EQ((a - b).ns(), 2'000'000);
  EXPECT_LT(b, a);
  EXPECT_EQ(a.scaled(0.5).ns(), 1'500'000);
}

TEST(SimTime, TransmissionTime) {
  // 1000 bytes at 100 Mbps = 80 microseconds.
  EXPECT_EQ(transmission_time(1000, 100e6).ns(), 80'000);
  // 1 byte at 1 Gbps = 8 ns.
  EXPECT_EQ(transmission_time(1, 1e9).ns(), 8);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::milliseconds(3), [&]() { order.push_back(3); });
  sim.schedule(SimTime::milliseconds(1), [&]() { order.push_back(1); });
  sim.schedule(SimTime::milliseconds(2), [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::milliseconds(3));
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(SimTime::milliseconds(1), [&order, i]() { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 10) sim.schedule(SimTime::microseconds(1), chain);
  };
  sim.schedule(SimTime::zero(), chain);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), SimTime::microseconds(9));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle h = sim.schedule(SimTime::milliseconds(1), [&]() { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  EventHandle h = sim.schedule(SimTime::zero(), []() {});
  sim.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or corrupt
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.schedule(SimTime::milliseconds(1), [&]() { ++ran; });
  sim.schedule(SimTime::milliseconds(5), [&]() { ++ran; });
  const std::size_t executed = sim.run_until(SimTime::milliseconds(2));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), SimTime::milliseconds(2));  // clock advances to the boundary
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool ran = false;
  sim.schedule(SimTime::milliseconds(2), [&]() { ran = true; });
  sim.run_until(SimTime::milliseconds(2));
  EXPECT_TRUE(ran);
}

TEST(Simulator, StepExecutesOne) {
  Simulator sim;
  int ran = 0;
  sim.schedule(SimTime::zero(), [&]() { ++ran; });
  sim.schedule(SimTime::zero(), [&]() { ++ran; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(SimTime::zero(), []() {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

// Property: over many randomized schedules with heavy time collisions,
// execution order is exactly (time, scheduling order).
TEST(SimulatorProperty, EqualTimeEventsAlwaysExecuteInSchedulingOrder) {
  util::Rng rng(0xfeed);
  for (int trial = 0; trial < 50; ++trial) {
    Simulator sim;
    const int n = 20 + static_cast<int>(rng.next_below(60));
    std::vector<std::pair<std::int64_t, int>> expected;  // (time, insertion idx)
    std::vector<int> executed;
    for (int i = 0; i < n; ++i) {
      // Only 8 distinct timestamps, so most events collide.
      const auto t = SimTime::microseconds(static_cast<std::int64_t>(rng.next_below(8)));
      expected.emplace_back(t.ns(), i);
      sim.schedule(t, [&executed, i]() { executed.push_back(i); });
    }
    sim.run();
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(executed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(executed[i], expected[i].second) << "trial " << trial << " position " << i;
    }
  }
}

// Property: cancelling a handle after its event fired never unschedules
// anything else and keeps the pending-event accounting exact.
TEST(SimulatorProperty, CancelAfterFireIsAlwaysNoop) {
  util::Rng rng(0xcafe);
  for (int trial = 0; trial < 50; ++trial) {
    Simulator sim;
    const int n = 10 + static_cast<int>(rng.next_below(30));
    int ran = 0;
    std::vector<EventHandle> handles;
    for (int i = 0; i < n; ++i) {
      handles.push_back(sim.schedule(
          SimTime::microseconds(static_cast<std::int64_t>(rng.next_below(5))), [&]() { ++ran; }));
    }
    sim.run();
    ASSERT_EQ(ran, n);
    for (auto& h : handles) {
      ASSERT_FALSE(h.pending());
      h.cancel();  // all no-ops
      h.cancel();  // idempotent
    }
    ASSERT_EQ(sim.pending_events(), 0u);
    // The simulator is still fully functional afterwards.
    bool late = false;
    sim.schedule(SimTime::microseconds(1), [&]() { late = true; });
    ASSERT_EQ(sim.pending_events(), 1u);
    sim.run();
    ASSERT_TRUE(late);
  }
}

// Property: run_until(t) executes exactly the events with time <= t, leaves
// the rest queued, and advances the clock to exactly t even when no event
// sits on the boundary.
TEST(SimulatorProperty, RunUntilAdvancesClockExactlyToBoundary) {
  util::Rng rng(0xbead);
  for (int trial = 0; trial < 50; ++trial) {
    Simulator sim;
    const int n = 10 + static_cast<int>(rng.next_below(40));
    std::vector<std::int64_t> times_ns;
    std::size_t executed = 0;
    for (int i = 0; i < n; ++i) {
      const auto t = SimTime::microseconds(static_cast<std::int64_t>(rng.next_below(100)));
      times_ns.push_back(t.ns());
      sim.schedule(t, [&executed]() { ++executed; });
    }
    // A nanosecond-granular boundary, so it usually falls strictly between
    // the microsecond-aligned event times.
    const SimTime boundary =
        SimTime::nanoseconds(static_cast<std::int64_t>(rng.next_below(100'000'000)));
    sim.run_until(boundary);
    const auto expected = static_cast<std::size_t>(
        std::count_if(times_ns.begin(), times_ns.end(),
                      [&boundary](std::int64_t t) { return t <= boundary.ns(); }));
    ASSERT_EQ(executed, expected) << "trial " << trial;
    ASSERT_EQ(sim.now(), boundary) << "trial " << trial;  // exact, not "last event time"
    ASSERT_EQ(sim.pending_events(), times_ns.size() - expected);
    sim.run();
    ASSERT_EQ(executed, times_ns.size());
  }
}

TEST(Simulator, MassCancellationCompactsHeap) {
  Simulator sim;
  std::vector<EventHandle> handles;
  handles.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(sim.schedule(SimTime::seconds(100 + i), []() {}));
  }
  EXPECT_EQ(sim.queued_entries(), 1000u);
  // Cancel 900 of the 1000: tombstones now outnumber live entries, so the
  // heap must compact rather than hold 90% dead weight.
  for (int i = 0; i < 900; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(sim.pending_events(), 100u);
  EXPECT_LT(sim.queued_entries(), 250u);  // 100 live + bounded tombstone slack
  // The survivors are untouched and still run.
  for (int i = 900; i < 1000; ++i) {
    EXPECT_TRUE(handles[static_cast<std::size_t>(i)].pending());
  }
  sim.run();
  EXPECT_EQ(sim.executed_events(), 100u);
  EXPECT_EQ(sim.queued_entries(), 0u);
}

TEST(Simulator, SmallHeapsSkipCompaction) {
  // Below the compaction threshold tombstones are simply popped lazily.
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule(SimTime::seconds(1 + i), []() {}));
  }
  for (int i = 0; i < 9; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(sim.queued_entries(), 10u);  // tombstones still queued
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, StaleHandleCannotCancelRecycledSlot) {
  // After h1 fires its slot returns to the free list; h2 likely reuses it.
  // The generation counter must keep the stale h1 from touching h2.
  Simulator sim;
  EventHandle h1 = sim.schedule(SimTime::milliseconds(1), []() {});
  sim.run();
  bool ran = false;
  EventHandle h2 = sim.schedule(SimTime::milliseconds(1), [&]() { ran = true; });
  h1.cancel();  // stale: must be a no-op even if h2 recycled h1's slot
  EXPECT_FALSE(h1.pending());
  EXPECT_TRUE(h2.pending());
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelledSlotRecycledForNewEvents) {
  // Cancelling releases the slot immediately; heavy schedule/cancel cycles
  // must not grow the slab without bound.
  Simulator sim;
  for (int i = 0; i < 10'000; ++i) {
    EventHandle h = sim.schedule(SimTime::seconds(1), []() {});
    h.cancel();
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 0u);
  // Still functional.
  bool ran = false;
  sim.schedule(SimTime::milliseconds(1), [&]() { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CallbackMayScheduleIntoItsOwnSlot) {
  // The running event's slot is released before the callback executes, so a
  // self-rescheduling chain can recycle one slot forever.
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 100) sim.schedule(SimTime::microseconds(1), chain);
  };
  sim.schedule(SimTime::zero(), chain);
  sim.run();
  EXPECT_EQ(count, 100);
}

// Counts its own move and copy constructions through two shared counters.
struct CountingCallable {
  int* moves;
  int* copies;
  int* runs;
  CountingCallable(int* m, int* c, int* r) : moves(m), copies(c), runs(r) {}
  CountingCallable(CountingCallable&& o) noexcept : moves(o.moves), copies(o.copies), runs(o.runs) {
    ++*moves;
  }
  CountingCallable(const CountingCallable& o) : moves(o.moves), copies(o.copies), runs(o.runs) {
    ++*copies;
  }
  void operator()() const { ++*runs; }
};

TEST(Simulator, CallableIsMovedAtMostTwiceBeforeItRuns) {
  // One move builds the callable in its slot, one moves it out to run it.
  Simulator sim;
  int moves = 0;
  int copies = 0;
  int runs = 0;
  sim.schedule(SimTime::microseconds(1), CountingCallable{&moves, &copies, &runs});
  sim.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(copies, 0);
  EXPECT_LE(moves, 2);

  moves = 0;
  sim.schedule_at(sim.now() + SimTime::microseconds(1), CountingCallable{&moves, &copies, &runs});
  sim.run();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(copies, 0);
  EXPECT_LE(moves, 2);

  // An lvalue is copied into its slot once and never moved on the way in.
  moves = 0;
  const CountingCallable kept{&moves, &copies, &runs};
  sim.schedule(SimTime::microseconds(1), kept);
  sim.run();
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(copies, 1);
  EXPECT_LE(moves, 1);

  // An EventFn rvalue is relocated into its slot: one move builds the
  // EventFn, one relocates it into the slot, one moves it out to run.
  moves = 0;
  EventFn fn = CountingCallable{&moves, &copies, &runs};
  sim.schedule(SimTime::microseconds(1), std::move(fn));
  sim.run();
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(copies, 1);
  EXPECT_LE(moves, 3);
}

TEST(SimulatorDeathTest, EmptyCallbackFailsAtScheduleTime) {
  Simulator sim;
  EXPECT_DEATH(sim.schedule(SimTime::zero(), EventFn{}), "empty callback");
  EXPECT_DEATH(sim.schedule_at(SimTime::zero(), EventFn{}), "empty callback");
}

TEST(SimulatorDeathTest, PastTimesFailAtScheduleTime) {
  Simulator sim;
  EXPECT_DEATH(sim.schedule(SimTime::nanoseconds(-1), []() {}), "into the past");
  sim.run_until(SimTime::microseconds(5));
  EXPECT_DEATH(sim.schedule_at(SimTime::microseconds(4), []() {}), "into the past");
}

// Property: under a random mix of schedule, schedule_at, single cancels,
// mass cancels that compact the heap and callbacks that schedule more
// events, with up to a few thousand pending, events run exactly in
// (when, seq) order, seq being the order of the schedule calls.
class OrderingHarness {
 public:
  explicit OrderingHarness(std::uint64_t seed) : rng_(seed) {}

  void add() {
    // A 50 ns grid, so equal times are common among the pending events.
    const SimTime delay = SimTime::nanoseconds(static_cast<std::int64_t>(rng_.next_below(2000)) * 50);
    const SimTime when = sim_.now() + delay;
    const std::uint64_t seq = next_seq_++;
    auto fire = [this, when, seq]() { on_fire(when, seq); };
    const EventHandle h =
        rng_.next_below(2) == 0 ? sim_.schedule(delay, fire) : sim_.schedule_at(when, fire);
    reference_.emplace(when.ns(), seq);
    handles_.push_back(Tracked{h, when.ns(), seq});
  }

  // Cancels a random tracked handle; a fired one makes it a no-op.
  void cancel_one() {
    if (handles_.empty()) return;
    const std::size_t i = rng_.next_below(handles_.size());
    cancel(handles_[i]);
    handles_[i] = handles_.back();
    handles_.pop_back();
  }

  // Cancels about three quarters of the pending events at once.
  void mass_cancel() {
    const std::size_t before = sim_.queued_entries();
    for (Tracked& t : handles_) {
      if (rng_.next_below(4) != 0) cancel(t);
    }
    std::erase_if(handles_, [](const Tracked& t) { return !t.handle.pending(); });
    if (sim_.queued_entries() < before / 2) compacted_ = true;
  }

  Simulator& sim() { return sim_; }
  util::Rng& rng() { return rng_; }
  [[nodiscard]] std::size_t pending() const { return reference_.size(); }
  [[nodiscard]] std::uint64_t scheduled() const { return next_seq_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }
  [[nodiscard]] std::uint64_t misordered() const { return misordered_; }
  [[nodiscard]] bool compacted() const { return compacted_; }

 private:
  struct Tracked {
    EventHandle handle;
    std::int64_t when_ns;
    std::uint64_t seq;
  };

  void cancel(Tracked& t) {
    if (!t.handle.pending()) return;
    t.handle.cancel();
    if (reference_.erase({t.when_ns, t.seq}) == 1) ++cancelled_;
  }

  void on_fire(SimTime when, std::uint64_t seq) {
    const auto expected = std::make_pair(when.ns(), seq);
    if (reference_.empty() || *reference_.begin() != expected || sim_.now() != when) {
      ++misordered_;
    }
    reference_.erase(expected);
    ++executed_;
    if (rng_.next_below(3) == 0 && pending() < 4000) add();
  }

  Simulator sim_;
  util::Rng rng_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t misordered_ = 0;
  bool compacted_ = false;
  std::set<std::pair<std::int64_t, std::uint64_t>> reference_;  // live (when ns, seq)
  std::vector<Tracked> handles_;
};

TEST(SimulatorProperty, RandomScheduleCancelMixRunsInWhenSeqOrder) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    OrderingHarness h(seed);
    std::size_t peak_pending = 0;
    for (int round = 0; round < 600; ++round) {
      const std::uint64_t op = h.rng().next_below(100);
      if (op < 60) {
        const std::uint64_t burst = 1 + h.rng().next_below(64);
        for (std::uint64_t i = 0; i < burst && h.pending() < 4000; ++i) h.add();
      } else if (op < 75) {
        for (std::uint64_t i = 0, n = 1 + h.rng().next_below(8); i < n; ++i) h.cancel_one();
      } else if (op < 77 && h.pending() > 500) {
        h.mass_cancel();
      } else {
        const SimTime until =
            h.sim().now() + SimTime::nanoseconds(static_cast<std::int64_t>(h.rng().next_below(1000)));
        h.sim().run_until(until);
      }
      peak_pending = std::max(peak_pending, h.pending());
      ASSERT_EQ(h.sim().pending_events(), h.pending()) << "seed " << seed << " round " << round;
    }
    h.sim().run();
    EXPECT_EQ(h.misordered(), 0u) << "seed " << seed;
    EXPECT_EQ(h.pending(), 0u) << "seed " << seed;
    EXPECT_EQ(h.executed() + h.cancelled(), h.scheduled()) << "seed " << seed;
    EXPECT_EQ(h.sim().executed_events(), h.executed()) << "seed " << seed;
    EXPECT_TRUE(h.compacted()) << "seed " << seed;
    EXPECT_GT(peak_pending, 1000u) << "seed " << seed;
  }
}

TEST(CpuServer, SingleCoreSerializesJobs) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    server.submit(SimTime::milliseconds(10),
                  [&completions, &sim]() { completions.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], SimTime::milliseconds(10));
  EXPECT_EQ(completions[1], SimTime::milliseconds(20));
  EXPECT_EQ(completions[2], SimTime::milliseconds(30));
}

TEST(CpuServer, MultiCoreRunsInParallel) {
  Simulator sim;
  CpuServer server{sim, "cpu", 2};
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    server.submit(SimTime::milliseconds(10),
                  [&completions, &sim]() { completions.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 4u);
  // Two at t=10 (parallel), two at t=20.
  EXPECT_EQ(completions[1], SimTime::milliseconds(10));
  EXPECT_EQ(completions[2], SimTime::milliseconds(20));
  EXPECT_EQ(completions[3], SimTime::milliseconds(20));
}

TEST(CpuServer, BusyTimeAccumulates) {
  Simulator sim;
  CpuServer server{sim, "cpu", 2};
  for (int i = 0; i < 4; ++i) server.submit(SimTime::milliseconds(5), nullptr);
  sim.run();
  EXPECT_EQ(server.busy_time(), SimTime::milliseconds(20));
  EXPECT_EQ(server.jobs_completed(), 4u);
}

TEST(CpuServer, UtilizationPercentCanExceed100) {
  Simulator sim;
  CpuServer server{sim, "cpu", 4};
  // 4 cores busy for the whole window: the OS-style reading is 400%.
  for (int i = 0; i < 4; ++i) server.submit(SimTime::milliseconds(10), nullptr);
  sim.run();
  EXPECT_DOUBLE_EQ(server.utilization_percent(SimTime::zero(), SimTime::milliseconds(10)),
                   400.0);
}

TEST(CpuServer, WaitTimesMeasured) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  server.submit(SimTime::milliseconds(10), nullptr);
  server.submit(SimTime::milliseconds(10), nullptr);  // waits 10 ms
  sim.run();
  EXPECT_EQ(server.wait_ms().count(), 2u);
  EXPECT_DOUBLE_EQ(server.wait_ms().max(), 10.0);
  EXPECT_DOUBLE_EQ(server.wait_ms().min(), 0.0);
}

TEST(CpuServer, FifoOrderWithinQueue) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    server.submit(SimTime::milliseconds(1), [&order, i]() { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(CpuServer, ZeroServiceJobCompletes) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  bool done = false;
  server.submit(SimTime::zero(), [&]() { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(CpuServer, ResetStatsClearsAccounting) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  server.submit(SimTime::milliseconds(5), nullptr);
  sim.run();
  server.reset_stats();
  EXPECT_EQ(server.busy_time(), SimTime::zero());
  EXPECT_EQ(server.jobs_completed(), 0u);
  EXPECT_EQ(server.wait_ms().count(), 0u);
}

TEST(CpuServer, CompletionCallbackSubmissionQueuesFairly) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  std::vector<int> order;
  server.submit(SimTime::milliseconds(1), [&]() {
    order.push_back(0);
    // Submitted from a completion: must run after the already queued job.
    server.submit(SimTime::milliseconds(1), [&]() { order.push_back(2); });
  });
  server.submit(SimTime::milliseconds(1), [&]() { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(CpuServer, JobsOwnMoveOnlyAndOversizedCaptures) {
  // A job may own what it captures: a unique_ptr (move-only) and a capture
  // too large for the inline buffer (heap fallback) both run, and the FIFO
  // order across one core and the parallel order across two are unchanged.
  struct Big {
    std::array<std::uint8_t, 512> bytes{};
  };
  static_assert(sizeof(Big) > sizeof(CpuServer::Job), "must overflow the inline buffer");
  for (const unsigned cores : {1u, 2u}) {
    Simulator sim;
    CpuServer server{sim, "cpu", cores};
    std::vector<std::pair<int, SimTime>> done;
    for (int i = 0; i < 6; ++i) {
      if (i % 2 == 0) {
        server.submit(SimTime::milliseconds(10),
                      [&done, &sim, owned = std::make_unique<int>(i)]() {
          done.emplace_back(*owned, sim.now());
        });
      } else {
        Big big;
        big.bytes.fill(static_cast<std::uint8_t>(i));
        server.submit(SimTime::milliseconds(10), [&done, &sim, big]() {
          done.emplace_back(big.bytes.front() == big.bytes.back() ? big.bytes[7] : -1,
                            sim.now());
        });
      }
    }
    sim.run();
    ASSERT_EQ(done.size(), 6u);
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(done[static_cast<std::size_t>(i)].first, i) << cores << " cores";
      // Jobs complete in submission order, `cores` at a time.
      EXPECT_EQ(done[static_cast<std::size_t>(i)].second,
                SimTime::milliseconds(10 * (1 + i / static_cast<int>(cores))));
    }
  }
}

}  // namespace
}  // namespace sdnbuf::sim
