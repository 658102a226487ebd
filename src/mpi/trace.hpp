// Execution traces: the raw material of every analysis in the paper.
//
// Each rank records a sequence of timed segments (compute, injected delay,
// waiting) plus per-timestep begin markers. The analysis layer extracts
// idle periods, wave fronts, decay rates and Fig. 2 style step positions
// from these traces.
//
// Storage is struct-of-arrays: one shared Segment slab and one shared
// SimTime slab, with a small per-rank row descriptor (offset/count/capacity)
// into each. At machine scale (100k-1M ranks) this replaces two heap
// allocations per rank with two slab allocations per run, keeps recording
// cache-linear, and makes the whole trace cost measurable via bytes_used().
// The Cluster reserves every rank's row exactly from its program before the
// run, so steady-state recording never reallocates; rows written without a
// reservation (tests, tools) grow by relocating to the slab tail, which
// wastes the vacated region but keeps the common reserved path branch-free.
// alias_rank() lets fast-forward synthesis share one physical row between
// ranks with provably identical timelines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/time.hpp"

namespace iw::mpi {

enum class SegKind : std::uint8_t {
  compute,   ///< regular execution phase (noise included in duration)
  injected,  ///< deliberately injected one-off delay
  wait,      ///< blocked in WaitAll — idleness and communication delay
};

[[nodiscard]] constexpr const char* to_string(SegKind k) {
  switch (k) {
    case SegKind::compute: return "compute";
    case SegKind::injected: return "injected";
    case SegKind::wait: return "wait";
  }
  return "?";
}

struct Segment {
  SegKind kind = SegKind::compute;
  SimTime begin;
  SimTime end;
  std::int32_t step = -1;   ///< application timestep the segment belongs to
  Duration noise;           ///< noise portion of a compute segment

  [[nodiscard]] Duration duration() const { return end - begin; }
};

/// Trace of one full simulation run.
class Trace {
 public:
  explicit Trace(int ranks);

  void add_segment(int rank, Segment seg);
  void mark_step(int rank, std::int32_t step, SimTime when);
  void set_finish(int rank, SimTime when);

  /// Pre-sizes one rank's segment and step storage so a run of known shape
  /// (the Cluster derives it from the rank's program) records without
  /// reallocating mid-simulation. Rows must be reserved before any write
  /// and at most once.
  void reserve_rank(int rank, std::size_t segments, std::size_t steps);

  /// Pre-sizes both slabs for rows totalling `segments` and `steps`, so the
  /// reserve_rank() calls of one run carve them without relocating.
  void reserve(std::size_t segments, std::size_t steps);

  /// Makes `rank` share `source`'s physical rows (segments, step marks) and
  /// finish time. Used by the fast-forward path: every silent rank in a
  /// residue class has a byte-identical timeline, so one row serves them
  /// all. `rank` must not have recorded or reserved anything yet, and no
  /// further writes to either rank are allowed afterwards.
  void alias_rank(int rank, int source);

  /// Bulk alias_rank() over a periodic pattern: every rank r in
  /// [first, last) shares the rows of sources[r % sources.size()]; a rank
  /// that is its own source keeps its rows. One descriptor copy per rank —
  /// the fast-forward path aliases each silent range with one call.
  void alias_periodic(int first, int last, std::span<const int> sources);

  /// Copies `source_rank`'s rows (segments, step marks, finish) from
  /// another trace into `rank` of this one — the fast-forward path imports
  /// one canonical reference-ring timeline per residue class, then
  /// alias_rank()s the rest of the class onto it. `rank` must not have
  /// recorded or reserved anything yet.
  void import_rank(int rank, const Trace& source, int source_rank);

  [[nodiscard]] int ranks() const {
    return static_cast<int>(finish_.size());
  }
  [[nodiscard]] std::span<const Segment> segments(int rank) const;
  /// Wall-clock times at which `rank` began each timestep, indexed by step.
  [[nodiscard]] std::span<const SimTime> step_begin(int rank) const;
  /// Time at which the rank finished its program.
  [[nodiscard]] SimTime finish(int rank) const;
  /// Completion time of the whole run (max over ranks).
  [[nodiscard]] SimTime makespan() const;

  /// Total time `rank` spent in segments of `kind`.
  [[nodiscard]] Duration total(int rank, SegKind kind) const;

  /// Heap bytes held by the trace (slabs + row tables), the dominant term
  /// of the per-rank memory budget at scale.
  [[nodiscard]] std::size_t bytes_used() const;

 private:
  /// Per-rank view into a slab. 32-bit offsets cap a slab at ~4.3G entries,
  /// loudly enforced — ample for 1M ranks at catalog step counts.
  struct Row {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
    std::uint32_t capacity = 0;
  };

  template <typename T>
  static void grow_row(Row& row, std::vector<T>& slab);
  void check_rank(int rank) const;

  std::vector<Segment> seg_slab_;
  std::vector<SimTime> step_slab_;
  std::vector<Row> seg_rows_;
  std::vector<Row> step_rows_;
  std::vector<SimTime> finish_;
};

}  // namespace iw::mpi
