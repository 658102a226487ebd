// The recomposed point: WaveRunner::run + reduce, taken apart at the seams
// of the public layer API so the traced run can time each layer from
// outside — cluster ctor/reset, workload build, Cluster::run (engine,
// transport, fabric and noise all run inside it) or the fast-forward
// plan/run pair, idle-wave analysis, record reduce. identity_check() proves
// the recomposition is the real program: it must reproduce
// WaveRunner::run's trace, engine counters and record bytes exactly.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "sweep/record.hpp"

namespace e2e {

/// Per-layer work and time summed over the recomposed points of one run.
struct LayerTotals {
  std::uint64_t points = 0;
  std::int64_t point_ns = 0;  ///< whole recomposed points
  std::uint64_t fresh_builds = 0;
  std::uint64_t resets = 0;
  std::int64_t setup_ns = 0;
  std::uint64_t builds = 0;  ///< workload builds (full-simulation points)
  std::int64_t build_ns = 0;
  std::uint64_t sim_points = 0;  ///< points through Cluster::run
  std::int64_t sim_ns = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t calendar_peak = 0;  ///< summed over sim points
  double bytes_per_rank = 0.0;      ///< summed over sim points
  std::uint64_t unexpected = 0;
  std::uint64_t demotions = 0;
  std::uint64_t nic_backlogged = 0;
  std::uint64_t deferred_pushes = 0;
  std::uint64_t plans = 0;
  std::int64_t plan_ns = 0;
  std::uint64_t ffwd_points = 0;
  std::int64_t ffwd_ns = 0;
  std::uint64_t ffwd_active = 0;  ///< summed active ranks
  std::uint64_t ffwd_silent = 0;  ///< summed silent ranks
  std::uint64_t ffwd_skips = 0;
  std::uint64_t ffwd_events = 0;
  double ffwd_bytes_per_rank = 0.0;
  std::int64_t analysis_ns = 0;
  std::int64_t reduce_ns = 0;
};

/// Runs points layer by layer on one recycled Cluster, exactly as
/// iw::core::WaveRunner does, with a span per layer when the log is enabled.
class ComposedRunner {
 public:
  explicit ComposedRunner(SpanLog& log) : log_(log) {}

  /// One point; spans hang under a "point" span in `group`. When `out` is
  /// set it receives the full result (trace included).
  iw::sweep::SweepRecord run(const iw::sweep::SweepPoint& pt, std::uint32_t group,
                         int parent, iw::core::WaveResult* out = nullptr);

  LayerTotals totals;

 private:
  SpanLog& log_;
  std::unique_ptr<iw::core::Cluster> cluster_;
};

/// Runs `points` in order through a ComposedRunner and through one
/// iw::core::WaveRunner (both recycling their cluster) and compares trace,
/// engine/transport/fast-forward counters and record bytes. Returns one
/// message per mismatching point; empty when the recomposition is exact.
std::vector<std::string> identity_check(
    const std::vector<iw::sweep::SweepPoint>& points);

/// The cluster/workload/sim/mpi/ffwd/analysis/record.reduce per-layer
/// metrics of `t` (means per recomposed point or per operation).
void export_layers(const LayerTotals& t, std::map<std::string, double>& out);

/// Self time per span name, the unattributed share of the root spans
/// (self time of the point/job spans over their duration), and a
/// per-name table for the report.
struct SpanSummary {
  struct Row {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  double unattributed_share = 0.0;
};
SpanSummary summarize(const std::vector<Span>& spans);

/// Writes the spans as a Chrome trace (one "X" event each; group and
/// parent in args). Returns false when the file cannot be written.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace e2e
