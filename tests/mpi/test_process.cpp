// Tests for the process interpreter: op semantics, blocking, tracing.
#include <gtest/gtest.h>

#include <memory>

#include "memory/bandwidth_domain.hpp"
#include "mpi/process.hpp"
#include "net/fabric.hpp"
#include "noise/noise_model.hpp"

namespace iw::mpi {
namespace {

class ProcessFixture {
 public:
  explicit ProcessFixture(int ranks)
      : topo_(net::TopologySpec::one_rank_per_node(ranks)),
        fabric_(net::FabricProfile::ideal(microseconds(1.0), 1e9)),
        transport_(engine_, topo_, fabric_, {}),
        trace_(ranks) {
    for (int r = 0; r < ranks; ++r)
      procs_.push_back(
          std::make_unique<Process>(r, engine_, transport_, trace_));
    transport_.set_completion_handler([this](int rank, RequestId req) {
      procs_[static_cast<std::size_t>(rank)]->on_request_complete(req);
    });
  }

  void run(std::vector<Program> programs) {
    programs_ = std::move(programs);  // processes borrow, fixture owns
    for (std::size_t r = 0; r < programs_.size(); ++r) {
      procs_[r]->set_program(&programs_[r]);
      procs_[r]->start();
    }
    engine_.run();
  }

  sim::Engine engine_;
  net::Topology topo_;
  net::FabricProfile fabric_;
  Transport transport_;
  Trace trace_;
  std::vector<Program> programs_;
  std::vector<std::unique_ptr<Process>> procs_;
};

TEST(Process, ComputeAdvancesClockAndTraces) {
  ProcessFixture f(1);
  Program p;
  p.mark(0).compute(milliseconds(3.0), false);
  f.run({std::move(p)});
  EXPECT_TRUE(f.procs_[0]->done());
  EXPECT_EQ(f.trace_.finish(0), SimTime::zero() + milliseconds(3.0));
  ASSERT_EQ(f.trace_.segments(0).size(), 1u);
  const auto& seg = f.trace_.segments(0)[0];
  EXPECT_EQ(seg.kind, SegKind::compute);
  EXPECT_EQ(seg.duration(), milliseconds(3.0));
  EXPECT_EQ(seg.step, 0);
}

TEST(Process, InjectTracedSeparately) {
  ProcessFixture f(1);
  Program p;
  p.mark(0).compute(milliseconds(1.0), false).inject(milliseconds(9.0));
  f.run({std::move(p)});
  EXPECT_EQ(f.trace_.total(0, SegKind::injected), milliseconds(9.0));
  EXPECT_EQ(f.trace_.finish(0), SimTime::zero() + milliseconds(10.0));
}

TEST(Process, NoiseSourceExtendsComputePhases) {
  ProcessFixture f(1);
  const noise::UniformNoise noise(microseconds(100.0), microseconds(100.0));
  f.procs_[0]->add_noise(&noise, Rng(1));
  Program p;
  p.mark(0).compute(milliseconds(1.0), true).compute(milliseconds(1.0), true);
  f.run({std::move(p)});
  // Two phases, each +100 us.
  EXPECT_EQ(f.trace_.finish(0), SimTime::zero() + milliseconds(2.2));
  EXPECT_EQ(f.trace_.segments(0)[0].noise, microseconds(100.0));
}

TEST(Process, NonNoisyComputeIgnoresNoise) {
  ProcessFixture f(1);
  const noise::UniformNoise noise(microseconds(100.0), microseconds(100.0));
  f.procs_[0]->add_noise(&noise, Rng(1));
  Program p;
  p.compute(milliseconds(1.0), false);
  f.run({std::move(p)});
  EXPECT_EQ(f.trace_.finish(0), SimTime::zero() + milliseconds(1.0));
}

TEST(Process, PingPongBlocksAndRecordsWait) {
  ProcessFixture f(2);
  // Rank 0 computes 1 ms then sends; rank 1 waits for it immediately.
  Program p0, p1;
  p0.mark(0).compute(milliseconds(1.0), false).isend(1, 100, 0).waitall();
  p1.mark(0).irecv(0, 100, 0).waitall();
  f.run({std::move(p0), std::move(p1)});
  // Rank 1 waited from t=0 to arrival (1 ms + ~1 us network).
  const Duration wait = f.trace_.total(1, SegKind::wait);
  EXPECT_GT(wait, milliseconds(1.0));
  EXPECT_LT(wait, milliseconds(1.1));
}

TEST(Process, WaitallWithCompletedRequestsDoesNotBlock) {
  ProcessFixture f(2);
  Program p0, p1;
  // Rank 0 sends eagerly (completes locally) and waits: no wait segment.
  p0.isend(1, 100, 0).waitall().compute(milliseconds(1.0), false);
  p1.compute(milliseconds(2.0), false).irecv(0, 100, 0).waitall();
  f.run({std::move(p0), std::move(p1)});
  // Eager local completion has overhead 0 on the ideal fabric.
  EXPECT_EQ(f.trace_.total(0, SegKind::wait), Duration::zero());
  EXPECT_EQ(f.trace_.total(1, SegKind::wait), Duration::zero());
}

TEST(Process, StepMarksRecordWallclock) {
  ProcessFixture f(1);
  Program p;
  p.mark(0).compute(milliseconds(2.0), false)
      .mark(1).compute(milliseconds(3.0), false)
      .mark(2);
  f.run({std::move(p)});
  const auto& marks = f.trace_.step_begin(0);
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_EQ(marks[0], SimTime::zero());
  EXPECT_EQ(marks[1], SimTime::zero() + milliseconds(2.0));
  EXPECT_EQ(marks[2], SimTime::zero() + milliseconds(5.0));
}

TEST(Process, MemWorkUsesDomain) {
  ProcessFixture f(1);
  memory::BandwidthDomain domain(f.engine_, 10e9, 10e9);
  f.procs_[0]->set_domain(&domain);
  Program p;
  p.mark(0).mem_work(10'000'000, false);  // 10 MB at 10 GB/s = 1 ms
  f.run({std::move(p)});
  EXPECT_EQ(f.trace_.finish(0), SimTime::zero() + milliseconds(1.0));
}

TEST(Process, MemWorkWithoutDomainThrows) {
  ProcessFixture f(1);
  Program p;
  p.mem_work(100);
  f.procs_[0]->set_program(&p);
  f.procs_[0]->start();
  EXPECT_THROW(f.engine_.run(), std::invalid_argument);
}

TEST(Process, DoneHandlerFires) {
  ProcessFixture f(1);
  int done_rank = -1;
  f.procs_[0]->set_done_handler(
      {[](void* ctx, int r) { *static_cast<int*>(ctx) = r; }, &done_rank});
  Program p;
  p.compute(milliseconds(1.0), false);
  f.run({std::move(p)});
  EXPECT_EQ(done_rank, 0);
}

TEST(Process, TwoRankRingStaysInLockstep) {
  ProcessFixture f(2);
  std::vector<Program> progs(2);
  for (int r = 0; r < 2; ++r) {
    const int peer = 1 - r;
    for (int s = 0; s < 5; ++s) {
      progs[static_cast<std::size_t>(r)]
          .mark(s)
          .compute(milliseconds(1.0), false)
          .isend(peer, 100, s)
          .irecv(peer, 100, s)
          .waitall();
    }
  }
  f.run(std::move(progs));
  // Both ranks finish together, 5 cycles of ~1 ms + ~1.1 us comm.
  EXPECT_EQ(f.trace_.finish(0), f.trace_.finish(1));
  EXPECT_GT(f.trace_.finish(0), SimTime::zero() + milliseconds(5.0));
  EXPECT_LT(f.trace_.finish(0), SimTime::zero() + milliseconds(5.1));
}

}  // namespace
}  // namespace iw::mpi
