// Tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace iw::sim {
namespace {

TEST(Engine, ClockAdvancesWithEvents) {
  Engine eng;
  std::vector<std::int64_t> times;
  eng.after(Duration{100}, [&] { times.push_back(eng.now().ns()); });
  eng.after(Duration{50}, [&] { times.push_back(eng.now().ns()); });
  eng.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{50, 100}));
  EXPECT_EQ(eng.now().ns(), 100);
  EXPECT_EQ(eng.events_processed(), 2u);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine eng;
  int fired = 0;
  eng.after(Duration{10}, [&] {
    ++fired;
    eng.after(Duration{10}, [&] {
      ++fired;
      eng.after(Duration{10}, [&] { ++fired; });
    });
  });
  eng.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(eng.now().ns(), 30);
}

TEST(Engine, ZeroDelayEventFiresAtSameTime) {
  Engine eng;
  std::vector<int> order;
  eng.after(Duration{5}, [&] {
    order.push_back(1);
    eng.after(Duration::zero(), [&] { order.push_back(2); });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now().ns(), 5);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  eng.after(Duration{10}, [&] { ++fired; });
  eng.after(Duration{20}, [&] { ++fired; });
  eng.after(Duration{30}, [&] { ++fired; });
  eng.run_until(SimTime{20});
  EXPECT_EQ(fired, 2);  // the t=20 event still fires
  EXPECT_EQ(eng.events_pending(), 1u);
  eng.run();
  EXPECT_EQ(fired, 3);
}

// run_until() can stop after peeking at the next pending time, which moves
// the calendar's front past now(). An event scheduled between now() and
// that pending time (or at now() itself) must still fire first.
TEST(Engine, RunUntilThenEarlierScheduleFiresFirst) {
  Engine eng;
  std::vector<int> order;
  eng.at(SimTime{10}, [&] { order.push_back(10); });
  eng.at(SimTime{1000}, [&] { order.push_back(1000); });
  eng.at(SimTime{1000}, [&] { order.push_back(1001); });
  eng.run_until(SimTime{500});
  EXPECT_EQ(eng.now(), SimTime{10});
  eng.at(SimTime{600}, [&] { order.push_back(600); });
  eng.at(SimTime{10}, [&] { order.push_back(11); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 600, 1000, 1001}));
  EXPECT_EQ(eng.now(), SimTime{1000});
}

TEST(Engine, StopExitsLoop) {
  Engine eng;
  int fired = 0;
  eng.after(Duration{1}, [&] {
    ++fired;
    eng.stop();
  });
  eng.after(Duration{2}, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(eng.stopped());
  eng.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PastSchedulingRejected) {
  Engine eng;
  eng.after(Duration{10}, [&] {
    EXPECT_THROW(eng.at(SimTime{5}, [] {}), std::invalid_argument);
  });
  eng.run();
  EXPECT_THROW(eng.after(Duration{-1}, [] {}), std::invalid_argument);
}

// Regression for the batch-drain fast path: stop() inside a same-timestamp
// batch must not drop the batch's remaining events — they stay pending and
// fire on resume, still in (time, seq) order.
TEST(Engine, StopMidBatchKeepsRemainingEvents) {
  Engine eng;
  std::vector<int> order;
  eng.at(SimTime{5}, [&] {
    order.push_back(0);
    eng.stop();
  });
  eng.at(SimTime{5}, [&] { order.push_back(1); });
  eng.at(SimTime{5}, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(eng.events_pending(), 2u);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eng.now().ns(), 5);
}

TEST(Engine, PeakPendingTracksCalendarPopulation) {
  Engine eng;
  for (int i = 0; i < 7; ++i) eng.at(SimTime{10 + i}, [] {});
  for (int i = 0; i < 3; ++i) eng.at(SimTime{10}, [] {});  // same-time burst
  EXPECT_EQ(eng.peak_events_pending(), 10u);
  eng.run();
  EXPECT_EQ(eng.peak_events_pending(), 10u);
  EXPECT_EQ(eng.events_processed(), 10u);
}

TEST(Engine, DeterministicTieOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 20; ++i)
    eng.at(SimTime{100}, [&order, i] { order.push_back(i); });
  eng.run();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace iw::sim
