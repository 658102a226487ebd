// Tests for idle-period extraction and wave-front analysis on crafted traces.
#include <gtest/gtest.h>

#include <vector>

#include "core/idle_wave.hpp"

namespace iw::core {
namespace {

mpi::Segment wait_seg(std::int64_t b_ms, std::int64_t e_ms) {
  return mpi::Segment{mpi::SegKind::wait, SimTime{b_ms * 1'000'000},
                      SimTime{e_ms * 1'000'000}, 0, Duration::zero()};
}

TEST(IdlePeriods, FiltersByMinimumDuration) {
  mpi::Trace trace(2);
  trace.add_segment(0, wait_seg(0, 5));
  trace.add_segment(0, wait_seg(10, 10));  // zero length (excluded)
  trace.add_segment(0, wait_seg(20, 21));  // 1 ms
  const auto all = idle_periods(trace, 0, Duration::zero());
  EXPECT_EQ(all.size(), 3u);
  const auto big = idle_periods(trace, 0, milliseconds(2.0));
  ASSERT_EQ(big.size(), 1u);
  EXPECT_EQ(big[0].duration(), milliseconds(5.0));
}

TEST(IdlePeriods, IgnoresNonWaitSegments) {
  mpi::Trace trace(1);
  trace.add_segment(0, mpi::Segment{mpi::SegKind::compute, SimTime{0},
                                    SimTime{1'000'000'000}, 0,
                                    Duration::zero()});
  trace.add_segment(0, mpi::Segment{mpi::SegKind::injected, SimTime{0},
                                    SimTime{1'000'000'000}, 0,
                                    Duration::zero()});
  EXPECT_TRUE(idle_periods(trace, 0, Duration::zero()).empty());
}

TEST(RankAtHops, OpenChainClipsAtEdges) {
  EXPECT_EQ(rank_at_hops(5, 2, +1, 10, workload::Boundary::open), 7);
  EXPECT_EQ(rank_at_hops(5, 5, -1, 10, workload::Boundary::open), 0);
  EXPECT_EQ(rank_at_hops(5, 6, -1, 10, workload::Boundary::open),
            std::nullopt);
  EXPECT_EQ(rank_at_hops(5, 5, +1, 10, workload::Boundary::open),
            std::nullopt);
}

TEST(RankAtHops, PeriodicWraps) {
  EXPECT_EQ(rank_at_hops(5, 6, +1, 10, workload::Boundary::periodic), 1);
  EXPECT_EQ(rank_at_hops(5, 6, -1, 10, workload::Boundary::periodic), 9);
  EXPECT_EQ(rank_at_hops(0, 10, +1, 10, workload::Boundary::periodic), 0);
}

/// Builds a synthetic trace of a clean wave: injected at rank 2, arriving
/// at rank 2+k at time (10 + 4k) ms with amplitude (20 - 2k) ms.
mpi::Trace synthetic_wave(int ranks) {
  mpi::Trace trace(ranks);
  trace.add_segment(2, mpi::Segment{mpi::SegKind::injected,
                                    SimTime{10'000'000}, SimTime{30'000'000},
                                    0, Duration::zero()});
  for (int k = 1; 2 + k < ranks; ++k) {
    const std::int64_t begin = (10 + 4 * k) * 1'000'000;
    const std::int64_t dur = (20 - 2 * k) * 1'000'000;
    if (dur <= 0) break;
    trace.add_segment(2 + k,
                      mpi::Segment{mpi::SegKind::wait, SimTime{begin},
                                   SimTime{begin + dur}, 0, Duration::zero()});
  }
  return trace;
}

TEST(AnalyzeWave, RecoversSpeedAndDecayExactly) {
  const mpi::Trace trace = synthetic_wave(12);
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  probe.direction = +1;
  const WaveAnalysis wave = analyze_wave(trace, probe);

  // Front: 4 ms per hop -> 250 ranks/s.
  EXPECT_NEAR(wave.speed_ranks_per_sec, 250.0, 1e-6);
  EXPECT_NEAR(wave.front_fit.r2, 1.0, 1e-12);
  // Amplitude: -2 ms per hop -> decay 2000 us/rank.
  EXPECT_NEAR(wave.decay_us_per_rank, 2000.0, 1e-6);
  // Amplitudes 18,16,...,2 ms: 9 ranks reached.
  EXPECT_EQ(wave.survival_hops, 9);
}

TEST(AnalyzeWave, MinIdleCutsShortPeriods) {
  const mpi::Trace trace = synthetic_wave(12);
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(10.0);  // only amplitudes >= 10 ms count
  probe.direction = +1;
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_EQ(wave.survival_hops, 5);  // 18,16,14,12,10
}

TEST(AnalyzeWave, DirectionDownFindsNothingInUpwardWave) {
  const mpi::Trace trace = synthetic_wave(12);
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  probe.direction = -1;
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_EQ(wave.survival_hops, 0);
  EXPECT_DOUBLE_EQ(wave.speed_ranks_per_sec, 0.0);
}

TEST(AnalyzeWave, MaxHopsLimitsProbe) {
  const mpi::Trace trace = synthetic_wave(12);
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  probe.direction = +1;
  probe.max_hops = 3;
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_EQ(wave.observations.size(), 3u);
  EXPECT_EQ(wave.survival_hops, 3);
}

// ---- fit edge cases: every degenerate trace must yield a well-defined
// "no fit" (zeros, valid=false), never NaN or garbage. ----

TEST(AnalyzeWave, WaveNeverReachesAnyRank) {
  mpi::Trace trace(8);  // nothing but silence
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_EQ(wave.reached_count, 0);
  EXPECT_EQ(wave.survival_hops, 0);
  EXPECT_FALSE(wave.front_valid);
  EXPECT_FALSE(wave.front_fit.valid);
  EXPECT_EQ(wave.front_fit.n, 0u);
  EXPECT_DOUBLE_EQ(wave.speed_ranks_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(wave.decay_us_per_rank, 0.0);
  EXPECT_DOUBLE_EQ(wave.front_rmse_us, 0.0);
  EXPECT_DOUBLE_EQ(wave.amplitude_rmse_us, 0.0);
}

TEST(AnalyzeWave, SingleObservationFrontIsDegenerateNotGarbage) {
  // Only one rank ever idles: least squares on one point has no slope.
  mpi::Trace trace(8);
  trace.add_segment(3, wait_seg(20, 30));
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_EQ(wave.reached_count, 1);
  EXPECT_EQ(wave.survival_hops, 1);
  EXPECT_EQ(wave.front_fit.n, 1u);
  EXPECT_FALSE(wave.front_fit.valid);
  EXPECT_FALSE(wave.front_valid);
  EXPECT_DOUBLE_EQ(wave.speed_ranks_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(wave.decay_us_per_rank, 0.0);
  EXPECT_DOUBLE_EQ(wave.front_rmse_us, 0.0);
}

TEST(AnalyzeWave, PeriodicBoundaryHopsWrapAround) {
  // 6 ranks, injection at 4, upward probe: hops 1..5 visit 5,0,1,2,3.
  mpi::Trace trace(6);
  for (int k = 1; k <= 3; ++k)
    trace.add_segment((4 + k) % 6, wait_seg(10 + 4 * k, 18 + 4 * k));
  WaveProbe probe;
  probe.injection_rank = 4;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  probe.boundary = workload::Boundary::periodic;
  const WaveAnalysis wave = analyze_wave(trace, probe);
  ASSERT_EQ(wave.observations.size(), 5u);  // once around minus one
  EXPECT_EQ(wave.observations[0].rank, 5);
  EXPECT_EQ(wave.observations[1].rank, 0);  // wrapped
  EXPECT_EQ(wave.observations[2].rank, 1);
  EXPECT_TRUE(wave.observations[1].reached);
  EXPECT_EQ(wave.survival_hops, 3);
  EXPECT_TRUE(wave.front_valid);
  EXPECT_NEAR(wave.speed_ranks_per_sec, 250.0, 1e-6);  // 4 ms per hop
}

TEST(AnalyzeWave, AllWaitsBelowMinIdleYieldNoFit) {
  const mpi::Trace trace = synthetic_wave(12);  // amplitudes 18..2 ms
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(25.0);  // above every amplitude
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_EQ(wave.reached_count, 0);
  EXPECT_EQ(wave.survival_hops, 0);
  EXPECT_FALSE(wave.front_valid);
  EXPECT_DOUBLE_EQ(wave.speed_ranks_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(wave.decay_us_per_rank, 0.0);
}

TEST(AnalyzeWave, CleanWaveResidualsAreTinyAndR2Perfect) {
  const mpi::Trace trace = synthetic_wave(12);
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_TRUE(wave.front_valid);
  EXPECT_EQ(wave.reached_count, 9);
  EXPECT_NEAR(wave.front_rmse_us, 0.0, 1e-6);      // exact line
  EXPECT_NEAR(wave.amplitude_rmse_us, 0.0, 1e-6);  // exact line
  EXPECT_NEAR(wave.front_fit.r2, 1.0, 1e-12);
}

TEST(AnalyzeWave, WaitsEndingBeforeInjectionAreIgnored) {
  mpi::Trace trace(4);
  // A long pre-existing wait on rank 3 ends before injection.
  trace.add_segment(3, wait_seg(0, 5));
  trace.add_segment(3, wait_seg(20, 30));
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  probe.direction = +1;
  const WaveAnalysis wave = analyze_wave(trace, probe);
  ASSERT_TRUE(wave.observations[0].reached);
  EXPECT_EQ(wave.observations[0].arrival, SimTime{20'000'000});
}

// --- first-wait memo over aliased rows -------------------------------------

/// A fast-forward-shaped trace of two-segment rows: the injection on rank
/// 0, distinct rows on ranks 1..1000 (rank 2 empty, its row address shared
/// with rank 1's reached row), and every later rank aliased onto one of two
/// shared rows — `shared`, or one holding only non-qualifying waits.
mpi::Trace aliased_trace(int ranks, const std::vector<mpi::Segment>& shared) {
  mpi::Trace trace(ranks);
  trace.add_segment(1, wait_seg(12, 20));  // first row: slab offset 0
  trace.add_segment(1, wait_seg(30, 31));
  trace.add_segment(0, mpi::Segment{mpi::SegKind::injected,
                                    SimTime{10'000'000}, SimTime{30'000'000},
                                    0, Duration::zero()});
  trace.add_segment(0, wait_seg(30, 40));
  for (int r = 3; r <= 1000; ++r) {
    const std::int64_t begin = 10 + r % 97;
    trace.add_segment(r, wait_seg(0, 9));  // ends before the injection
    trace.add_segment(r, wait_seg(begin, begin + r % 5));
  }
  for (const mpi::Segment& seg : shared) trace.add_segment(1001, seg);
  trace.add_segment(1002, wait_seg(0, 9));
  trace.add_segment(1002, wait_seg(40, 40));  // zero length
  trace.alias_rank(1003, 1001);
  const int sources[] = {1001, 1002};
  trace.alias_periodic(1004, ranks, sources);
  return trace;
}

/// The same contents with every row physically distinct.
mpi::Trace dealiased(const mpi::Trace& trace) {
  mpi::Trace copy(trace.ranks());
  for (int r = 0; r < trace.ranks(); ++r) copy.import_rank(r, trace, r);
  return copy;
}

void expect_same_analysis(const WaveAnalysis& a, const WaveAnalysis& b) {
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    const WaveObservation& x = a.observations[i];
    const WaveObservation& y = b.observations[i];
    ASSERT_EQ(x.rank, y.rank) << "observation " << i;
    ASSERT_EQ(x.hops, y.hops) << "observation " << i;
    ASSERT_EQ(x.reached, y.reached) << "observation " << i;
    ASSERT_EQ(x.arrival, y.arrival) << "observation " << i;
    ASSERT_EQ(x.amplitude, y.amplitude) << "observation " << i;
  }
  EXPECT_EQ(a.survival_hops, b.survival_hops);
  EXPECT_EQ(a.reached_count, b.reached_count);
  EXPECT_EQ(a.front_valid, b.front_valid);
  EXPECT_EQ(a.speed_ranks_per_sec, b.speed_ranks_per_sec);
  EXPECT_EQ(a.decay_us_per_rank, b.decay_us_per_rank);
  EXPECT_EQ(a.front_rmse_us, b.front_rmse_us);
  EXPECT_EQ(a.amplitude_rmse_us, b.amplitude_rmse_us);
}

void expect_memo_transparent(const std::vector<mpi::Segment>& shared,
                             bool shared_reached) {
  // 1000 distinct rows of one length (5000 in the de-aliased copy) collide
  // in the memo table, so the comparison also covers slot collisions.
  const mpi::Trace aliased = aliased_trace(5000, shared);
  const mpi::Trace plain = dealiased(aliased);
  for (const auto boundary :
       {workload::Boundary::open, workload::Boundary::periodic}) {
    for (const int direction : {+1, -1}) {
      WaveProbe probe;
      probe.injection_rank = 0;
      probe.injection_time = SimTime{10'000'000};
      probe.min_idle = milliseconds(1.0);
      probe.boundary = boundary;
      probe.direction = direction;
      const WaveAnalysis a = analyze_wave(aliased, probe);
      const WaveAnalysis b = analyze_wave(plain, probe);
      expect_same_analysis(a, b);
      if (boundary == workload::Boundary::periodic && direction == +1) {
        ASSERT_GT(a.observations.size(), 1003u);
        EXPECT_TRUE(a.observations[0].reached);   // rank 1
        EXPECT_FALSE(a.observations[1].reached);  // rank 2, empty row
        EXPECT_EQ(a.observations[1002].rank, 1003);  // aliased onto 1001
        EXPECT_EQ(a.observations[1002].reached, shared_reached);
      }
    }
  }
}

TEST(AnalyzeWave, MemoOverSharedRowWithQualifyingWait) {
  expect_memo_transparent({wait_seg(5, 6), wait_seg(60, 75)},
                          /*shared_reached=*/true);
}

TEST(AnalyzeWave, MemoOverSharedRowWithoutQualifyingWait) {
  expect_memo_transparent({wait_seg(0, 9), wait_seg(50, 50)},
                          /*shared_reached=*/false);
}

}  // namespace
}  // namespace iw::core
