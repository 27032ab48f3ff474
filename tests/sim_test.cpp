// Discrete-event simulator, coroutine task, and TSC clock tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sccft::sim {
namespace {

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, SameTimeFifoBySchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CallbacksCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) sim.schedule_after(5, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.now(), 45);
}

TEST(Simulator, RunUntilAdvancesTimeEvenWithoutEvents) {
  Simulator sim;
  EXPECT_TRUE(sim.run_until(1'000));
  EXPECT_EQ(sim.now(), 1'000);
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  bool late_fired = false;
  sim.schedule_at(2'000, [&] { late_fired = true; });
  sim.run_until(1'000);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now(), 1'000);
  sim.run();
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
}

// Regression: stop() issued between run segments used to be discarded by the
// next run()/run_until() (which reset the flag at entry). The request must be
// sticky until a run loop observes it.
TEST(Simulator, StopBetweenSegmentsIsSticky) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.stop();  // no run loop active: must not be lost
  EXPECT_TRUE(sim.stop_pending());
  EXPECT_FALSE(sim.run_until(100));  // observes the stop, dispatches nothing
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(sim.stopped());
  EXPECT_FALSE(sim.stop_pending());  // consumed by the segment that observed it
  // The next segment proceeds normally.
  EXPECT_TRUE(sim.run_until(100));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.stopped());
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, StopConsumedOncePerSegment) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(20, [&] { ++fired; });
  sim.run();  // exits via the in-callback stop
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  sim.run();  // stop was consumed: the remaining event now fires
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.stopped());
}

TEST(Simulator, SchedulingInThePastRejected) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(50, [] {}), util::ContractViolation);
}

TEST(Simulator, PastScheduleDiagnosticCarriesBothTimes) {
  // The rejection must name the offending timestamp AND the current virtual
  // time — a bare "scheduled into the past" leaves a campaign bisect blind.
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  try {
    sim.schedule_at(50, [] {});
    FAIL() << "schedule_at(50) with now()==100 did not throw";
  } catch (const util::ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("t=50"), std::string::npos) << what;
    EXPECT_NE(what.find("now()=100"), std::string::npos) << what;
  }
}

TEST(Simulator, DestructionDestroysPendingCallables) {
  // Pending events own their callables; the destructor must destroy both the
  // inline and the boxed (larger than kInlineCallableBytes) kinds.
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    for (int i = 0; i < 300; ++i) {
      sim.schedule_at(10 * i, [token] { ++*token; });
    }
    std::array<std::int64_t, 16> ballast{};
    static_assert(sizeof(ballast) > kInlineCallableBytes);
    sim.schedule_at(5'000, [token, ballast] { *token += static_cast<int>(ballast[0]); });
    sim.run_until(95);  // fires ten inline events, leaves the rest pending
    EXPECT_EQ(*token, 10);
    EXPECT_GT(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 10);
}

// ---------------------------------------------------------------------------
// EventQueue against a brute-force reference
// ---------------------------------------------------------------------------

/// Drives an EventQueue and a plain vector side by side: every peek and pop
/// must return the reference's (time, seq) minimum, found by a linear scan.
class QueueDifferential {
 public:
  void insert(TimeNs time) {
    EventRecord* rec = arena_.allocate();
    rec->time = time;
    rec->seq = next_seq_++;
    queue_.insert(rec);
    reference_.emplace_back(time, rec->seq);
  }

  void peek() {
    EventRecord* head = queue_.peek();
    if (reference_.empty()) {
      ASSERT_EQ(head, nullptr);
      return;
    }
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(std::make_pair(head->time, head->seq), *reference_min());
  }

  void pop() {
    EventRecord* rec = queue_.pop();
    if (reference_.empty()) {
      ASSERT_EQ(rec, nullptr);
      return;
    }
    ASSERT_NE(rec, nullptr);
    const auto expected = reference_min();
    ASSERT_EQ(std::make_pair(rec->time, rec->seq), *expected);
    reference_.erase(expected);
    floor_ = rec->time;
    arena_.release(rec);
  }

  /// Raises the floor to a random instant no later than the earliest
  /// pending event, as run_until does when it idles forward.
  void advance_floor(util::Xoshiro256& rng) {
    const TimeNs ceiling =
        reference_.empty() ? floor_ + 1'000'000 : reference_min()->first;
    floor_ = rng.uniform_int(floor_, ceiling);
    queue_.advance_floor(floor_);
  }

  void check_size() const {
    EXPECT_EQ(queue_.size(), reference_.size());
    EXPECT_EQ(queue_.empty(), reference_.empty());
  }

  [[nodiscard]] TimeNs floor() const { return floor_; }
  [[nodiscard]] std::size_t size() const { return reference_.size(); }

  ~QueueDifferential() {
    while (EventRecord* rec = queue_.pop()) arena_.release(rec);
  }

 private:
  std::vector<std::pair<TimeNs, std::uint64_t>>::iterator reference_min() {
    return std::min_element(reference_.begin(), reference_.end());
  }

  EventArena arena_;
  EventQueue queue_;
  std::vector<std::pair<TimeNs, std::uint64_t>> reference_;
  std::uint64_t next_seq_ = 0;
  TimeNs floor_ = 0;
};

/// An insertion time at or after `floor`: mostly exact ties with the floor
/// or with each other, near-future gaps of a few microseconds, and a tail of
/// sparse far-future events (seconds to hours ahead).
TimeNs draw_time(util::Xoshiro256& rng, TimeNs floor) {
  const double u = rng.uniform01();
  if (u < 0.30) return floor;
  if (u < 0.45) return floor + rng.uniform_int(1, 3);
  if (u < 0.90) return floor + rng.uniform_int(1'000, 50'000);
  return floor + rng.uniform_int(1'000'000'000, 3'600'000'000'000);
}

TEST(EventQueue, MatchesBruteForceReferenceOnRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Xoshiro256 rng(seed);
    QueueDifferential diff;
    for (int op = 0; op < 4'000; ++op) {
      const double u = rng.uniform01();
      if (u < 0.45) {
        diff.insert(draw_time(rng, diff.floor()));
      } else if (u < 0.80) {
        diff.pop();
      } else if (u < 0.92) {
        diff.peek();
      } else {
        diff.advance_floor(rng);
      }
      diff.check_size();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(EventQueue, BurstPastAThousandPendingThenDrain) {
  util::Xoshiro256 rng(77);
  QueueDifferential diff;
  for (int i = 0; i < 1'500; ++i) {
    diff.insert(draw_time(rng, diff.floor()));
    if (i % 7 == 0) diff.peek();
  }
  ASSERT_EQ(diff.size(), 1'500u);
  diff.check_size();
  // Drain with a trickle of same-instant and near-future re-inserts (a
  // dispatched event scheduling follow-ups), then empty the queue.
  for (int i = 0; i < 3'000 && diff.size() > 0; ++i) {
    diff.pop();
    if (i % 5 == 0) diff.insert(draw_time(rng, diff.floor()));
    if (i % 3 == 0) diff.peek();
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (diff.size() > 0) {
    diff.pop();
    if (::testing::Test::HasFatalFailure()) return;
  }
  diff.check_size();
  diff.pop();  // empty: nullptr
  diff.peek();
}

Task counting_task(Simulator& sim, int* counter, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await Delay{sim, 10};
    ++*counter;
  }
}

TEST(Task, DelayAwaitableAdvancesSimTime) {
  Simulator sim;
  int counter = 0;
  Task task = counting_task(sim, &counter, 5);
  task.start();
  sim.run();
  EXPECT_EQ(counter, 5);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_TRUE(task.done());
}

Task throwing_task(Simulator& sim) {
  co_await Delay{sim, 5};
  throw std::runtime_error("inside coroutine");
}

TEST(Task, ExceptionCapturedAndRethrown) {
  Simulator sim;
  Task task = throwing_task(sim);
  task.start();
  sim.run();
  EXPECT_TRUE(task.done());
  EXPECT_NE(task.exception(), nullptr);
  EXPECT_THROW(task.rethrow_if_failed(), std::runtime_error);
}

Task forever_task(bool* reached) {
  *reached = true;
  co_await Forever{};
  *reached = false;  // never executed
}

TEST(Task, ForeverNeverResumes) {
  Simulator sim;
  bool reached = false;
  Task task = forever_task(&reached);
  task.start();
  sim.run();
  EXPECT_TRUE(reached);
  EXPECT_FALSE(task.done());
  // Destroying a suspended task must be safe (no leak, no crash) — covered
  // by ASAN builds; here we just exercise the path.
}

TEST(Task, MoveTransfersOwnership) {
  Simulator sim;
  int counter = 0;
  Task a = counting_task(sim, &counter, 1);
  Task b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.start();
  sim.run();
  EXPECT_EQ(counter, 1);
}

TEST(TscClock, SynchronizationZeroesOffset) {
  TscClock clock(533e6, 3.0, 123'456);
  EXPECT_NE(clock.local_time_at(1'000'000), 1'000'000);
  clock.synchronize(1'000'000);
  EXPECT_NEAR(static_cast<double>(clock.local_time_at(1'000'000)), 1'000'000.0, 2.0);
}

TEST(TscClock, DriftAccumulatesAfterSync) {
  TscClock clock(533e6, 100.0, 0);  // 100 ppm drift
  clock.synchronize(0);
  // After 1 simulated second, a 100 ppm clock is ~100 us off.
  const auto local = clock.local_time_at(1'000'000'000);
  EXPECT_NEAR(static_cast<double>(local - 1'000'000'000), 100'000.0, 1'000.0);
}

TEST(TscClock, CyclesMatchFrequency) {
  TscClock clock(533e6, 0.0, 0);
  EXPECT_EQ(clock.cycles_at(1'000'000'000), 533'000'000u);
}

}  // namespace
}  // namespace sccft::sim
