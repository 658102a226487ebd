// JobQueue unit tests: admission quotas, fair-share scheduling, and the
// starvation bound — all deterministic, counted in single-point scheduling
// decisions rather than seconds (the queue is pure bookkeeping; no physics
// runs here).
#include <gtest/gtest.h>

#include <cstdint>

#include "service/queue.hpp"

namespace iw::service {
namespace {

TEST(JobQueue, AdmissionPointQuotaIsStructuredRejection) {
  QueueLimits limits;
  limits.max_points_per_client = 10;
  JobQueue q(limits);

  EXPECT_TRUE(q.check("a", 10).accepted);
  const Admission over = q.check("a", 11);
  EXPECT_FALSE(over.accepted);
  EXPECT_EQ(over.error_code, "admission-points");
  EXPECT_FALSE(over.message.empty());

  // Load already queued counts against the quota.
  q.open("a", 1, 0, 6, 0);
  EXPECT_TRUE(q.check("a", 4).accepted);
  const Admission full = q.check("a", 5);
  EXPECT_FALSE(full.accepted);
  EXPECT_EQ(full.error_code, "admission-points");
  // ...but only for that client.
  EXPECT_TRUE(q.check("b", 10).accepted);
}

TEST(JobQueue, AdmissionJobQuota) {
  QueueLimits limits;
  limits.max_jobs_per_client = 2;
  JobQueue q(limits);
  q.open("a", 1, 0, 1, 0);
  q.open("a", 2, 0, 1, 0);
  const Admission adm = q.check("a", 1);
  EXPECT_FALSE(adm.accepted);
  EXPECT_EQ(adm.error_code, "admission-jobs");
}

TEST(JobQueue, PriorityThenFifoWithinClient) {
  JobQueue q;
  q.open("a", 1, 0, 4, 0);  // submitted first, low priority
  q.open("a", 2, 5, 4, 0);  // higher priority wins
  q.open("a", 3, 5, 4, 0);  // same priority: admission order

  // One slot per decision: each job is drained before the next starts.
  Claim c;
  for (const std::uint64_t want : {2u, 2u, 2u, 2u, 3u, 3u, 3u, 3u, 1u}) {
    ASSERT_TRUE(q.decide(c));
    EXPECT_EQ(c.job, want);
  }
}

TEST(JobQueue, ClaimsWalkSlotsInOrderOnePerDecision) {
  JobQueue q;
  q.open("a", 1, 0, 3, 0);
  Claim c;
  for (std::size_t slot = 0; slot < 3; ++slot) {
    ASSERT_TRUE(q.decide(c));
    EXPECT_EQ(c.job, 1u);
    EXPECT_EQ(c.slot, slot);
    EXPECT_EQ(q.queue_depth(), 2u - slot);
  }
  EXPECT_FALSE(q.decide(c));
  EXPECT_EQ(q.decisions(), 3u);
  EXPECT_EQ(q.client_load("a"), 3u);  // claimed, not yet completed
  EXPECT_EQ(q.claimed(1), 3u);

  for (int i = 0; i < 3; ++i) q.complete_claimed(1);
  EXPECT_EQ(q.client_load("a"), 0u);
  q.close(1);
  EXPECT_EQ(q.clients_active(), 0u);
}

TEST(JobQueue, CancelReclaimsUnclaimedAndReserved) {
  JobQueue q;
  q.open("a", 1, 0, 8, 3);
  Claim c;
  ASSERT_TRUE(q.decide(c));
  ASSERT_TRUE(q.decide(c));
  EXPECT_EQ(q.queue_depth(), 6u);
  EXPECT_EQ(q.client_load("a"), 11u);

  // Cancel reclaims the 6 unclaimed pending + 3 reserved slots instantly;
  // the 2 claimed ones drain as their workers finish them.
  EXPECT_EQ(q.cancel(1), 9u);
  EXPECT_EQ(q.queue_depth(), 0u);
  EXPECT_FALSE(q.decide(c));
  EXPECT_EQ(q.client_load("a"), 2u);
  EXPECT_EQ(q.claimed(1), 2u);
  q.complete_claimed(1);
  q.complete_claimed(1);
  EXPECT_EQ(q.client_load("a"), 0u);
  q.close(1);
}

TEST(JobQueue, ReservedPromotionReentersQueue) {
  JobQueue q;
  q.open("a", 1, 0, 0, 2);
  EXPECT_EQ(q.queue_depth(), 0u);
  q.promote_reserved(1, 1);
  EXPECT_EQ(q.queue_depth(), 1u);
  q.complete_reserved(1, 1);
  Claim c;
  ASSERT_TRUE(q.decide(c));
  EXPECT_EQ(c.slot, 0u);
  EXPECT_FALSE(q.decide(c));
  q.complete_claimed(1);
  q.close(1);
}

// ---------------------------------------------------------------------------
// The starvation bound, in single-point decisions. A greedy client queues
// 10k points and gets a head start; a small client arrives late with 100.
// Fair share serves the minimum-charged client every decision, so from its
// arrival the small client wins every decision until its lifetime charge
// catches up with the greedy client's, and at least every other decision
// after that. Declared bound: a late client with P points completes within
// (active_clients x P) decisions of its arrival — within P when the head
// start is at least P. Provable in decision counts, independent of
// wall-clock.
// ---------------------------------------------------------------------------

/// Decisions the small client needs after a greedy head start of
/// `head_start` single-point decisions.
std::uint64_t small_client_finish(std::size_t head_start) {
  constexpr std::size_t kGreedy = 10000;
  constexpr std::size_t kSmall = 100;
  JobQueue q;
  q.open("greedy", 1, 0, kGreedy, 0);
  Claim c;
  for (std::size_t i = 0; i < head_start; ++i) {
    EXPECT_TRUE(q.decide(c));
    EXPECT_EQ(c.job, 1u);
    q.complete_claimed(1);
  }
  const std::uint64_t arrival = q.decisions();

  q.open("small", 2, 0, kSmall, 0);
  std::size_t small_done = 0;
  std::uint64_t small_finish = 0;
  while (small_done < kSmall) {
    EXPECT_TRUE(q.decide(c));
    q.complete_claimed(c.job);
    if (c.job == 2 && ++small_done == kSmall) small_finish = q.decisions();
    // Termination guard: the callers' bounds are the real assertions.
    if (q.decisions() > arrival + 10 * kSmall) {
      ADD_FAILURE() << "small client starved";
      return q.decisions() - arrival;
    }
  }

  // And the greedy client still finishes: nothing leaked.
  while (q.queue_depth() > 0) {
    EXPECT_TRUE(q.decide(c));
    q.complete_claimed(c.job);
  }
  q.close(1);
  q.close(2);
  EXPECT_EQ(q.clients_active(), 0u);
  return small_finish - arrival;
}

TEST(JobQueue, LateSmallClientIsNotStarvedByGreedyBacklog) {
  // A head start of 500 charged points: the 100-point client wins every
  // decision, so it finishes in exactly its own point count.
  EXPECT_EQ(small_client_finish(500), 100u);
  // A head start of 50: 50 straight wins, then strict alternation for the
  // remaining 50 points — inside the 2 clients x 100 points bound.
  const std::uint64_t short_lead = small_client_finish(50);
  EXPECT_EQ(short_lead, 150u);
  EXPECT_LE(short_lead, 2u * 100u);
}

TEST(JobQueue, FairShareAlternatesEquallyChargedClients) {
  JobQueue q;
  q.open("a", 1, 0, 40, 0);
  q.open("b", 2, 0, 40, 0);
  Claim c;
  std::size_t a_runs = 0;
  std::size_t b_runs = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.decide(c));
    q.complete_claimed(c.job);
    // Equal charges tie-break by client name, so the order is a, b, a, b...
    EXPECT_EQ(c.job, i % 2 == 0 ? 1u : 2u);
    (c.job == 1 ? a_runs : b_runs) += 1;
  }
  EXPECT_EQ(a_runs, 4u);
  EXPECT_EQ(b_runs, 4u);
}

}  // namespace
}  // namespace iw::service
