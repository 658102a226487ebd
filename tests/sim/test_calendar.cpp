// Tests for the deterministic event calendar.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "sim/calendar.hpp"

namespace iw::sim {
namespace {

TEST(Calendar, PopsInTimeOrder) {
  Calendar cal;
  std::vector<int> order;
  cal.schedule(SimTime{30}, [&] { order.push_back(3); });
  cal.schedule(SimTime{10}, [&] { order.push_back(1); });
  cal.schedule(SimTime{20}, [&] { order.push_back(2); });
  while (!cal.empty()) cal.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Calendar, TiesBreakByScheduleOrder) {
  Calendar cal;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i)
    cal.schedule(SimTime{100}, [&order, i] { order.push_back(i); });
  while (!cal.empty()) cal.pop().fn();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Calendar, MixedTiesAndTimes) {
  Calendar cal;
  std::vector<int> order;
  cal.schedule(SimTime{5}, [&] { order.push_back(10); });
  cal.schedule(SimTime{5}, [&] { order.push_back(11); });
  cal.schedule(SimTime{1}, [&] { order.push_back(0); });
  cal.schedule(SimTime{5}, [&] { order.push_back(12); });
  while (!cal.empty()) cal.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11, 12}));
}

TEST(Calendar, NextTimeReportsEarliest) {
  Calendar cal;
  cal.schedule(SimTime{42}, [] {});
  cal.schedule(SimTime{7}, [] {});
  EXPECT_EQ(cal.next_time(), SimTime{7});
  EXPECT_EQ(cal.size(), 2u);
}

TEST(Calendar, EmptyAccessorsThrow) {
  Calendar cal;
  EXPECT_TRUE(cal.empty());
  EXPECT_THROW((void)cal.next_time(), std::invalid_argument);
  EXPECT_THROW((void)cal.pop(), std::invalid_argument);
}

TEST(Calendar, SequenceNumbersIncrease) {
  Calendar cal;
  const auto s1 = cal.schedule(SimTime{1}, [] {});
  const auto s2 = cal.schedule(SimTime{1}, [] {});
  EXPECT_LT(s1, s2);
}

// Regression for the (time, seq) contract: same-time events scheduled
// NON-consecutively (other timestamps in between) must still interleave
// purely by (time, seq).
TEST(Calendar, TieBreakSurvivesInterleavedScheduling) {
  Calendar cal;
  std::vector<int> order;
  cal.schedule(SimTime{5}, [&] { order.push_back(0); });   // seq 0
  cal.schedule(SimTime{9}, [&] { order.push_back(10); });  // seq 1
  cal.schedule(SimTime{5}, [&] { order.push_back(1); });   // seq 2
  cal.schedule(SimTime{2}, [&] { order.push_back(-1); });  // seq 3
  cal.schedule(SimTime{5}, [&] { order.push_back(2); });   // seq 4
  cal.schedule(SimTime{9}, [&] { order.push_back(11); });  // seq 5
  while (!cal.empty()) cal.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 10, 11}));
}

// Events scheduled at the timestamp being drained must fire after the
// already-pending events of that timestamp (larger seq).
TEST(Calendar, SameTimeScheduleDuringDrain) {
  Calendar cal;
  std::vector<int> order;
  cal.schedule(SimTime{5}, [&] {
    order.push_back(0);
    cal.schedule(SimTime{5}, [&] { order.push_back(2); });
  });
  cal.schedule(SimTime{5}, [&] { order.push_back(1); });
  while (!cal.empty()) cal.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Regression for the seed's pop-by-copy bug: pop() must MOVE the closure
// out — captured state must never be copied between schedule and fire.
TEST(Calendar, PopMovesTheClosureWithoutCopying) {
  struct CopyCounter {
    int* copies;
    CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter&& o) noexcept : copies(o.copies) {}
    void operator()() const {}
  };
  int copies = 0;
  Calendar cal;
  cal.schedule(SimTime{1}, CopyCounter{&copies});
  Event ev = cal.pop();
  ev.fn();
  EXPECT_EQ(copies, 0);
}

TEST(Calendar, AcceptsMoveOnlyClosures) {
  Calendar cal;
  auto payload = std::make_unique<int>(42);
  int observed = 0;
  cal.schedule(SimTime{1}, [p = std::move(payload), &observed] {
    observed = *p;
  });
  cal.pop().fn();
  EXPECT_EQ(observed, 42);
}

TEST(Calendar, PopIfAtDrainsOnlyTheGivenTimestamp) {
  Calendar cal;
  int fired = 0;
  cal.schedule(SimTime{5}, [&] { ++fired; });
  cal.schedule(SimTime{5}, [&] { ++fired; });
  cal.schedule(SimTime{8}, [&] { ++fired; });
  EventFn fn;
  while (cal.pop_if_at(SimTime{5}, fn)) fn();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(cal.size(), 1u);
  EXPECT_FALSE(cal.pop_if_at(SimTime{7}, fn));
  EXPECT_TRUE(cal.pop_if_at(SimTime{8}, fn));
}

TEST(Calendar, PeakSizeCountsChainedEvents) {
  Calendar cal;
  for (int i = 0; i < 10; ++i) cal.schedule(SimTime{7}, [] {});
  for (int i = 0; i < 5; ++i) cal.schedule(SimTime{20 + i}, [] {});
  EXPECT_EQ(cal.size(), 15u);
  EXPECT_EQ(cal.peak_size(), 15u);
  while (!cal.empty()) cal.pop();
  EXPECT_EQ(cal.peak_size(), 15u);
  EXPECT_EQ(cal.size(), 0u);
}

// Stress equal-time runs deterministically: a pseudo-random mix of
// duplicate and unique timestamps must drain in exact (time, seq) order.
TEST(Calendar, RandomizedMixDrainsInTimeSeqOrder) {
  Calendar cal;
  std::uint64_t rng = 0xC0FFEE123456789ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  struct Fired {
    std::int64_t when;
    std::uint64_t seq;
  };
  std::vector<Fired> fired;
  std::vector<std::pair<std::int64_t, std::uint64_t>> scheduled;
  for (int i = 0; i < 2000; ++i) {
    const auto when = static_cast<std::int64_t>(next() % 64);  // many dups
    const auto seq = cal.schedule(SimTime{when}, [] {});
    scheduled.emplace_back(when, seq);
  }
  while (!cal.empty()) {
    Event ev = cal.pop();
    fired.push_back(Fired{ev.when.ns(), ev.seq});
  }
  std::sort(scheduled.begin(), scheduled.end());
  ASSERT_EQ(fired.size(), scheduled.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].when, scheduled[i].first) << "at index " << i;
    EXPECT_EQ(fired[i].seq, scheduled[i].second) << "at index " << i;
  }
}

// Drive the slab/bucket machinery through heavy churn with the structural
// audit engaged at every step. audit() is a no-op in plain Release, so
// there the test leans on the reference order check: every pop must be the
// (time, seq) minimum of a std::set mirror. In Debug/IDLEWAVE_AUDIT/
// sanitizer builds the audit also proves free-list integrity, bucket
// placement, per-bucket seq order and the live-count reconciliation at every
// intermediate state, including across reset() and slab reuse. Times are
// drawn from a narrow window regardless of what already fired, so many
// schedules land before the base and exercise the re-bucketing path too.
TEST(Calendar, AuditHoldsThroughChurnAndReset) {
  Calendar cal;
  std::uint64_t rng = 0x1D1EAF0000C0DEull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::set<std::pair<std::int64_t, std::uint64_t>> pending;
  auto pop_checked = [&] {
    const Event ev = cal.pop();
    ASSERT_FALSE(pending.empty());
    EXPECT_EQ(std::make_pair(ev.when.ns(), ev.seq), *pending.begin());
    pending.erase(pending.begin());
  };
  for (int round = 0; round < 3; ++round) {
    // Interleave schedules (with many duplicate timestamps, so equal-time
    // runs form) and pops (so slots recycle LIFO while buckets are live).
    for (int i = 0; i < 600; ++i) {
      const auto when = static_cast<std::int64_t>(next() % 32);
      pending.emplace(when, cal.schedule(SimTime{when}, [] {}));
      if (i % 3 == 2) {
        pop_checked();
        pop_checked();
      }
      cal.audit();
    }
    while (!cal.empty()) {
      pop_checked();
      cal.audit();
    }
    EXPECT_TRUE(pending.empty());
    cal.reset();  // runs its own IW_AUDIT(audit()) and must leave pristine
    cal.audit();
    EXPECT_EQ(cal.size(), 0u);
    EXPECT_EQ(cal.peak_size(), 0u);
  }
}

// Seeded differential test against a std::priority_queue of (time, seq).
// Gaps span every bucket level (0 to 2^62), equal-time bursts land both in
// the future and at the time being drained (bucket 0), and a peek followed
// by a schedule before the peeked time mimics an engine that stopped at a
// run_until() deadline.
TEST(Calendar, MatchesReferenceQueueAcrossEveryBucketLevel) {
  using Key = std::pair<std::int64_t, std::uint64_t>;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> ref;
  Calendar cal;
  std::uint64_t rng = 0x5EED0FCA1E4DA2ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::int64_t now = 0;
  auto schedule = [&](std::int64_t when, int count) {
    for (int i = 0; i < count; ++i)
      ref.emplace(when, cal.schedule(SimTime{when}, [] {}));
  };
  auto gap = [&] {
    const auto level = static_cast<unsigned>(next() % 63);
    const std::int64_t g =
        level == 0 ? 0 : static_cast<std::int64_t>(next() >> (64 - level));
    return std::min(g, std::numeric_limits<std::int64_t>::max() - now);
  };
  std::uint64_t pops = 0;
  auto pop_matches = [&] {
    const Event ev = cal.pop();
    const bool match = std::make_pair(ev.when.ns(), ev.seq) == ref.top();
    ref.pop();
    now = ev.when.ns();
    ++pops;
    // A burst at the time being drained queues behind bucket 0.
    if (next() % 4 == 0) schedule(now, 1 + static_cast<int>(next() % 6));
    return match;
  };
  for (int round = 0; round < 5000; ++round) {
    schedule(now + gap(), next() % 5 == 0 ? 1 + static_cast<int>(next() % 8) : 1);
    if (next() % 8 == 0) {
      const std::int64_t front = cal.next_time().ns();
      if (front > now) schedule(now + (front - now) / 2, 1);
    }
    if (round % 2 == 1) {
      ASSERT_TRUE(pop_matches()) << "pop " << pops;
      ASSERT_TRUE(pop_matches()) << "pop " << pops;
    }
    ASSERT_EQ(cal.size(), ref.size());
    if (round % 512 == 0) cal.audit();
  }
  while (!ref.empty()) ASSERT_TRUE(pop_matches()) << "pop " << pops;
  EXPECT_TRUE(cal.empty());
  EXPECT_GT(pops, 10000u);
}

}  // namespace
}  // namespace iw::sim
