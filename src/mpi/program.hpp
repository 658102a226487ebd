// Rank programs: the instruction streams interpreted by simulated processes.
//
// A Program is a linear sequence of operations in the spirit of LogGOPSim's
// GOAL schedules, specialized to the bulk-synchronous structure the paper
// studies: compute (core-bound or memory-bound), nonblocking posts, a
// closing WaitAll per iteration, plus one-off delay injection and timestep
// markers for tracing.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "support/time.hpp"

namespace iw::mpi {

/// Core-bound compute phase of fixed nominal duration. If `noisy`, attached
/// noise models add a random extra delay per phase.
struct OpCompute {
  Duration duration;
  bool noisy = true;
};

/// Memory-bound compute phase: moves `bytes` through the rank's bandwidth
/// domain (processor sharing with socket neighbors). Also receives noise.
struct OpMemWork {
  std::int64_t bytes = 0;
  bool noisy = true;
};

/// Deliberately injected one-off delay — the disturbance whose propagation
/// the paper studies. Traced separately from regular compute.
struct OpInject {
  Duration duration;
};

/// Nonblocking send / receive posts.
struct OpIsend {
  int peer = -1;
  std::int64_t bytes = 0;
  int tag = 0;
};
struct OpIrecv {
  int peer = -1;
  std::int64_t bytes = 0;
  int tag = 0;
};

/// Waits for all requests posted since the previous WaitAll.
struct OpWaitAll {};

/// Marks the beginning of application time step `step` (used for Fig. 2
/// style "where is time step t on the wall-clock axis" analyses).
struct OpMark {
  std::int32_t step = 0;
};

using Op =
    std::variant<OpCompute, OpMemWork, OpInject, OpIsend, OpIrecv, OpWaitAll,
                 OpMark>;

/// A rank's full instruction stream, with fluent builder helpers.
class Program {
 public:
  Program& compute(Duration d, bool noisy = true);
  Program& mem_work(std::int64_t bytes, bool noisy = true);
  Program& inject(Duration d);
  Program& isend(int peer, std::int64_t bytes, int tag);
  Program& irecv(int peer, std::int64_t bytes, int tag);
  Program& waitall();
  Program& mark(std::int32_t step);

  [[nodiscard]] const std::vector<Op>& ops() const { return ops_; }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  [[nodiscard]] bool empty() const { return ops_.empty(); }

  /// Total nominal (noise-free, contention-free) injected delay time.
  [[nodiscard]] Duration total_injected() const;

  /// Number of WaitAll operations (== communication rounds).
  [[nodiscard]] int rounds() const { return rounds_; }

  /// Exact upper bound on the trace segments this program can record: one
  /// per compute/mem_work/inject op plus at most one wait segment per
  /// WaitAll. The Cluster sizes per-rank trace rows from this, so recording
  /// never reallocates and never over-reserves (the old `size()` bound
  /// counted every send/recv post as a segment — ~3x waste at scale).
  [[nodiscard]] std::size_t segment_bound() const { return segment_bound_; }

  /// Largest number of requests simultaneously open in any WaitAll window
  /// (posts since the previous WaitAll). The Cluster sizes the shared
  /// request slab from this.
  [[nodiscard]] std::size_t max_window_requests() const {
    return max_window_requests_;
  }

 private:
  std::vector<Op> ops_;
  // Shape counters kept by the builders, so sizing a run never walks ops.
  std::size_t window_requests_ = 0;
  std::size_t max_window_requests_ = 0;
  std::size_t segment_bound_ = 0;
  int rounds_ = 0;
};

}  // namespace iw::mpi
