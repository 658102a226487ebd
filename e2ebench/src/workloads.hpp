// The four workloads. Each fills an Outcome: end-to-end samples from its
// untraced units and, in a traced run, per-layer metrics from the traced
// units it alternates with them.
#pragma once

#include <vector>

#include "common.hpp"
#include "sweep/record.hpp"
#include "sweep/scenario.hpp"

namespace e2e {

void run_campaign_small(const Config& cfg, SpanLog& log, Outcome& out);
void run_point_heavy(const Config& cfg, SpanLog& log, Outcome& out);
void run_scale_mixed(const Config& cfg, SpanLog& log, Outcome& out);
void run_daemon_overlap(const Config& cfg, SpanLog& log, Outcome& out);

/// The catalog scenarios the campaign, point and daemon workloads draw
/// from: every ring and grid scenario that runs the full event simulation
/// (fast-forward off), in catalog order.
std::vector<const iw::sweep::Scenario*> simulated_scenarios();

/// Oracle gate: checks `records` of a campaign over `spec` against the
/// analytic model, using a copy of `base` whose spec is `spec` (so seed,
/// steps and axis overrides are what re-expansion sees). Each violating
/// record counts as one failure, except injected-noise records outside the
/// catalog campaign, which count as oracle flags.
void check_oracles(const iw::sweep::Scenario& base,
                   const iw::sweep::SweepSpec& spec,
                   const std::vector<iw::sweep::SweepRecord>& records,
                   Outcome& out);

/// Fails `out` for every point whose recomposition differs from
/// WaveRunner::run (see identity_check) and records how many were checked.
void record_identity(const std::vector<iw::sweep::SweepPoint>& pts,
                     Outcome& out);

/// np x steps of one expanded point: the simulator's work at its input size.
std::uint64_t rank_steps(const iw::sweep::SweepSpec& spec,
                         const iw::sweep::SweepPoint& pt);

/// Set-up repetitions before the measured loop, and again after it, so the
/// reported median samples the host's speed at both ends of the run.
inline constexpr int kSetupReps = 9;
inline constexpr int kScaleSetupReps = 4;  ///< a machine-scale build each

/// Times a set-up action `reps` times and records each in out.setup_s;
/// `fn(last)` is told which repetition is the last. With `rotate`, each
/// repetition runs on the next CPU (see CpuRotor); a set-up that spawns
/// threads must not rotate.
template <typename Fn>
void measure_setup(int reps, Outcome& out, Fn&& fn, bool rotate = true) {
  CpuRotor rotor;
  for (int i = 0; i < reps; ++i) {
    if (rotate) rotor.next();
    const std::int64_t t0 = now_ns();
    fn(i == reps - 1);
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
}

}  // namespace e2e
