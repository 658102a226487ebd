#include "core/idle_wave.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "support/error.hpp"

namespace iw::core {

std::vector<IdlePeriod> idle_periods(const mpi::Trace& trace, int rank,
                                     Duration min_duration) {
  std::vector<IdlePeriod> periods;
  for (const auto& seg : trace.segments(rank)) {
    if (seg.kind != mpi::SegKind::wait) continue;
    if (seg.duration() < min_duration) continue;
    periods.push_back(IdlePeriod{rank, seg.begin, seg.end, seg.step});
  }
  return periods;
}

std::optional<int> rank_at_hops(int origin, int hops, int direction,
                                int ranks, workload::Boundary boundary) {
  IW_REQUIRE(ranks > 0, "need at least one rank");
  IW_REQUIRE(direction == 1 || direction == -1, "direction must be +-1");
  const int raw = origin + direction * hops;
  if (boundary == workload::Boundary::periodic)
    return ((raw % ranks) + ranks) % ranks;
  if (raw < 0 || raw >= ranks) return std::nullopt;
  return raw;
}

namespace {

/// The first wave-attributable wait of one physical trace row, memoized by
/// the row's storage address. Fast-forwarded traces alias every silent rank
/// of a residue class onto one shared row, so a probe crossing 10^6 silent
/// ranks scans each distinct row once and pays one table lookup per hop.
/// Direct-mapped: a collision only costs a rescan, never a wrong answer,
/// because the key (address, length) identifies the row's contents.
class FirstWaitMemo {
 public:
  FirstWaitMemo(const WaveProbe& probe, std::size_t rows) : probe_(probe) {
    std::size_t slots = 16;
    while (slots < rows * 2 && slots < kMaxSlots) slots *= 2;
    slots_.resize(slots);
  }

  /// Fills obs.reached / arrival / amplitude for `row`.
  void observe(std::span<const mpi::Segment> row, WaveObservation& obs) {
    const auto key = reinterpret_cast<std::uintptr_t>(row.data());
    Slot& slot = slots_[((key / sizeof(mpi::Segment)) * kHashMul >> 32) &
                        (slots_.size() - 1)];
    if (slot.row != row.data() || slot.size != row.size()) {
      slot = Slot{row.data(), row.size(), scan(row)};
    }
    obs.reached = slot.wait.reached;
    obs.arrival = slot.wait.arrival;
    obs.amplitude = slot.wait.amplitude;
  }

 private:
  static constexpr std::size_t kMaxSlots = 4096;
  static constexpr std::uint64_t kHashMul = 0x9E3779B97F4A7C15ull;

  struct Wait {
    bool reached = false;
    SimTime arrival;
    Duration amplitude;
  };
  struct Slot {
    const mpi::Segment* row = nullptr;
    std::size_t size = static_cast<std::size_t>(-1);  // matches no row
    Wait wait;
  };

  /// The period must *end* after the injection began (a begin-time
  /// comparison would race with per-rank noise skew: the neighbor may enter
  /// its waiting phase microseconds before the delayed rank starts the
  /// injected segment).
  [[nodiscard]] Wait scan(std::span<const mpi::Segment> row) const {
    for (const auto& seg : row) {
      if (seg.kind != mpi::SegKind::wait) continue;
      if (seg.duration() < probe_.min_idle) continue;
      if (seg.end <= probe_.injection_time) continue;
      return Wait{true, seg.begin, seg.duration()};
    }
    return Wait{};
  }

  const WaveProbe& probe_;
  std::vector<Slot> slots_;
};

}  // namespace

WaveAnalysis analyze_wave(const mpi::Trace& trace, const WaveProbe& probe) {
  WaveAnalysis analysis;
  const int n = trace.ranks();
  IW_REQUIRE(probe.direction == 1 || probe.direction == -1,
             "direction must be +-1");
  const bool periodic = probe.boundary == workload::Boundary::periodic;

  int max_hops = probe.max_hops;
  if (max_hops <= 0)
    max_hops = n - 1;  // open: clipped at the chain end; periodic: once around
  // An open chain ends before max_hops when the injection sits near an end.
  int hops_limit = max_hops;
  if (!periodic) {
    const std::int64_t first =
        std::int64_t{probe.injection_rank} + probe.direction;
    const std::int64_t room = first < 0 || first >= n ? 0
                              : probe.direction > 0   ? n - first
                                                      : first + 1;
    hops_limit = static_cast<int>(std::min<std::int64_t>(room, max_hops));
  }
  analysis.observations.reserve(static_cast<std::size_t>(hops_limit));

  // Walk the ranks incrementally (same sequence as rank_at_hops, without
  // two divisions per hop).
  int rank = periodic ? ((probe.injection_rank % n) + n) % n
                      : probe.injection_rank;
  FirstWaitMemo memo(probe, static_cast<std::size_t>(hops_limit));
  bool front_broken = false;
  for (int hops = 1; hops <= hops_limit; ++hops) {
    rank += probe.direction;
    if (periodic) {
      if (rank == n) rank = 0;
      if (rank < 0) rank = n - 1;
    }

    WaveObservation obs;
    obs.rank = rank;
    obs.hops = hops;
    memo.observe(trace.segments(rank), obs);
    if (obs.reached && !front_broken) ++analysis.survival_hops;
    if (!obs.reached) front_broken = true;
    analysis.observations.push_back(obs);
  }

  std::vector<double> hops_x, arrival_y, amp_y;
  for (const auto& obs : analysis.observations) {
    if (!obs.reached) continue;
    hops_x.push_back(static_cast<double>(obs.hops));
    arrival_y.push_back(obs.arrival.sec());
    amp_y.push_back(obs.amplitude.us());
  }

  analysis.reached_count = static_cast<int>(hops_x.size());

  analysis.front_fit = fit_line(hops_x, arrival_y);
  if (analysis.front_fit.valid && analysis.front_fit.slope > 0.0) {
    analysis.speed_ranks_per_sec = 1.0 / analysis.front_fit.slope;
    analysis.front_valid = true;
  }
  analysis.front_rmse_us = analysis.front_fit.rmse * 1e6;  // seconds -> us

  analysis.amplitude_fit = fit_line(hops_x, amp_y);
  if (analysis.amplitude_fit.valid)
    analysis.decay_us_per_rank = std::max(0.0, -analysis.amplitude_fit.slope);
  analysis.amplitude_rmse_us = analysis.amplitude_fit.rmse;

  return analysis;
}

}  // namespace iw::core
