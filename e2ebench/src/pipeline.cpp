#include "pipeline.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/fast_forward.hpp"
#include "core/idle_wave.hpp"
#include "core/speed_model.hpp"
#include "workload/grid2d.hpp"
#include "workload/ring.hpp"

namespace e2e {

using namespace iw;

namespace {

/// Times one layer call: a span when tracing, and the elapsed ns always.
template <typename Fn>
std::int64_t timed(SpanLog& log, const char* name, std::uint32_t group,
                   int parent, Fn&& fn) {
  const int span = log.open(name, group, parent);
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t dt = now_ns() - t0;
  log.close(span);
  return dt;
}

void copy_transport_stats(core::WaveResult& r, const core::Cluster& c) {
  const auto& s = c.transport_stats();
  r.eager_demotions = s.eager_fallbacks + s.credit_stalls;
  r.nic_backlogged = s.nic_backlogged;
  r.deferred_pushes = s.deferred_pushes;
  r.unexpected_eager = s.unexpected_eager;
  r.unexpected_rts = s.unexpected_rts;
}

core::WaveResult blank_result() {
  return core::WaveResult{mpi::Trace(1), {}, {}, mpi::WireProtocol::eager,
                          Duration::zero(), 0.0, SimTime::zero(), 0, 0};
}

mpi::WireProtocol protocol_for(const core::ClusterConfig& c,
                               std::int64_t bytes) {
  return c.transport.protocol_by_size(bytes, c.fabric.eager_limit_bytes);
}

// The two analysis functions below restate the post-run half of
// core/experiment.cpp (which keeps it in an anonymous namespace) through
// the public idle-wave API; identity_check() holds them to it.

void analyze_ring(core::WaveResult& result, const core::WaveExperiment& exp) {
  result.protocol = protocol_for(exp.cluster, exp.ring.msg_bytes);
  if (exp.delays.empty()) return;
  const int inj_rank = exp.delays.front().rank;
  result.injection_time = core::injection_begin(result.trace, inj_rank);

  core::WaveProbe probe;
  probe.injection_rank = inj_rank;
  probe.injection_time = result.injection_time;
  probe.min_idle = exp.min_idle;
  probe.boundary = exp.ring.boundary;
  const bool both_ways =
      exp.ring.direction == workload::Direction::bidirectional ||
      result.protocol == mpi::WireProtocol::rendezvous;
  const int n = exp.ring.ranks;
  if (exp.ring.boundary == workload::Boundary::periodic)
    probe.max_hops = both_ways ? std::max(1, n / 2 - 1) : n - 1;
  probe.direction = +1;
  result.up = core::analyze_wave(result.trace, probe);
  if (both_ways || exp.ring.boundary == workload::Boundary::open) {
    probe.direction = -1;
    result.down = core::analyze_wave(result.trace, probe);
  }
  const int far_rank = (inj_rank + n / 2) % n;
  if (exp.ring.steps >= 4)
    result.measured_cycle =
        core::measured_cycle(result.trace, far_rank, 1, exp.ring.steps - 1);
  if (result.measured_cycle.ns() > 0)
    result.predicted_speed =
        static_cast<double>(core::sigma_factor(
            exp.ring.direction, result.protocol, exp.cluster.transport)) *
        static_cast<double>(exp.ring.distance) / result.measured_cycle.sec();
}

void analyze_grid(core::WaveResult& result, const core::WaveExperiment& exp) {
  const workload::Grid2DSpec& grid = *exp.grid;
  result.protocol = protocol_for(exp.cluster, grid.msg_bytes);
  if (exp.delays.empty()) return;
  const int inj_rank = exp.delays.front().rank;
  result.injection_time = core::injection_begin(result.trace, inj_rank);
  const auto [x0, y0] = workload::grid_coords(grid, inj_rank);

  core::WaveProbe probe;
  probe.injection_rank = inj_rank;
  probe.injection_time = result.injection_time;
  probe.min_idle = exp.min_idle;
  probe.boundary = workload::Boundary::open;
  const int wrap_limit = grid.boundary == workload::Boundary::periodic
                             ? std::max(1, grid.px / 2 - 1)
                             : grid.px;
  probe.direction = +1;
  probe.max_hops = std::min(wrap_limit, grid.px - 1 - x0);
  if (probe.max_hops > 0) result.up = core::analyze_wave(result.trace, probe);
  probe.direction = -1;
  probe.max_hops = std::min(wrap_limit, x0);
  if (probe.max_hops > 0)
    result.down = core::analyze_wave(result.trace, probe);

  const int corners[] = {0, grid.ranks() - 1,
                         workload::grid_rank(grid, grid.px - 1, 0),
                         workload::grid_rank(grid, 0, grid.py - 1)};
  int far_rank = 0, far_dist = -1;
  for (const int c : corners) {
    const int dist = workload::grid_distance(grid, inj_rank, c);
    if (dist > far_dist) {
      far_dist = dist;
      far_rank = c;
    }
  }
  if (grid.steps >= 4)
    result.measured_cycle =
        core::measured_cycle(result.trace, far_rank, 1, grid.steps - 1);
  if (result.measured_cycle.ns() > 0)
    result.predicted_speed =
        static_cast<double>(core::sigma_factor(
            workload::Direction::bidirectional, result.protocol,
            exp.cluster.transport)) /
        result.measured_cycle.sec();
}

}  // namespace

sweep::SweepRecord ComposedRunner::run(const sweep::SweepPoint& pt,
                                       std::uint32_t group, int parent,
                                       core::WaveResult* out) {
  const core::WaveExperiment& exp = pt.exp;
  LayerTotals& t = totals;
  const std::int64_t start = now_ns();
  const Scope point(log_, "point", group, parent);
  const int p = point.index();

  const bool fresh = cluster_ == nullptr;
  t.setup_ns += timed(log_, "cluster.setup", group, p, [&] {
    if (fresh)
      cluster_ = std::make_unique<core::Cluster>(exp.cluster);
    else
      cluster_->reset(exp.cluster);
  });
  (fresh ? t.fresh_builds : t.resets) += 1;
  core::Cluster& cluster = *cluster_;

  core::WaveResult result = blank_result();
  bool ffwd_taken = false;
  if (!exp.grid && exp.ffwd != core::FfwdMode::off) {
    core::FastForwardPlan plan;
    t.plan_ns += timed(log_, "ffwd.plan", group, p,
                       [&] { plan = core::plan_fast_forward(exp); });
    t.plans += 1;
    if (exp.ffwd == core::FfwdMode::force && !plan.eligible)
      throw std::runtime_error("ffwd=force on an ineligible point: " +
                               plan.reason);
    if (plan.eligible &&
        (exp.ffwd == core::FfwdMode::force ||
         plan.active_count < static_cast<std::size_t>(exp.ring.ranks))) {
      std::optional<core::FastForwardResult> ff;
      t.ffwd_ns += timed(log_, "ffwd.run", group, p, [&] {
        ff.emplace(core::run_ring_fast_forward(cluster, exp, plan));
      });
      result.trace = std::move(ff->trace);
      result.ffwd_skips = ff->skips;
      result.ffwd_time_skipped = ff->time_skipped;
      ffwd_taken = true;
      t.ffwd_points += 1;
      t.ffwd_active += plan.active_count;
      t.ffwd_silent +=
          static_cast<std::size_t>(exp.ring.ranks) - plan.active_count;
      t.ffwd_skips += ff->skips;
      t.ffwd_events += cluster.events_processed();
      t.ffwd_bytes_per_rank += cluster.peak_bytes_per_rank();
    }
  }
  if (!ffwd_taken) {
    std::vector<mpi::Program> programs;
    t.build_ns += timed(log_, "workload.build", group, p, [&] {
      programs = exp.grid ? workload::build_grid2d(*exp.grid, exp.delays)
                          : workload::build_ring(exp.ring, exp.delays);
    });
    t.builds += 1;
    t.sim_ns += timed(log_, "sim.run", group, p, [&] {
      result.trace = cluster.run(programs, exp.injected_noise);
    });
    const auto& s = cluster.transport_stats();
    t.sim_points += 1;
    t.sim_events += cluster.events_processed();
    t.calendar_peak += cluster.peak_events_pending();
    t.bytes_per_rank += cluster.peak_bytes_per_rank();
    t.unexpected += s.unexpected_eager + s.unexpected_rts;
    t.demotions += s.eager_fallbacks + s.credit_stalls;
    t.nic_backlogged += s.nic_backlogged;
    t.deferred_pushes += s.deferred_pushes;
  }
  result.events_processed = cluster.events_processed();
  result.peak_events_pending = cluster.peak_events_pending();
  copy_transport_stats(result, cluster);

  t.analysis_ns += timed(log_, "analysis", group, p, [&] {
    if (exp.grid)
      analyze_grid(result, exp);
    else
      analyze_ring(result, exp);
  });
  sweep::SweepRecord rec;
  t.reduce_ns += timed(log_, "record.reduce", group, p,
                       [&] { rec = sweep::reduce(pt, result); });
  if (out != nullptr) *out = std::move(result);
  t.points += 1;
  t.point_ns += now_ns() - start;
  return rec;
}

namespace {

std::string trace_mismatch(const mpi::Trace& a, const mpi::Trace& b) {
  if (a.ranks() != b.ranks()) return "rank count";
  for (int r = 0; r < a.ranks(); ++r) {
    if (a.finish(r) != b.finish(r)) return "finish of rank " + std::to_string(r);
    const auto sa = a.segments(r), sb = b.segments(r);
    if (sa.size() != sb.size()) return "segment count of rank " + std::to_string(r);
    for (std::size_t i = 0; i < sa.size(); ++i)
      if (sa[i].kind != sb[i].kind || sa[i].begin != sb[i].begin ||
          sa[i].end != sb[i].end || sa[i].step != sb[i].step ||
          sa[i].noise != sb[i].noise)
        return "segment " + std::to_string(i) + " of rank " + std::to_string(r);
    const auto ma = a.step_begin(r), mb = b.step_begin(r);
    if (!std::equal(ma.begin(), ma.end(), mb.begin(), mb.end()))
      return "step marks of rank " + std::to_string(r);
  }
  return {};
}

}  // namespace

std::vector<std::string> identity_check(
    const std::vector<sweep::SweepPoint>& points) {
  std::vector<std::string> bad;
  SpanLog off(false);
  ComposedRunner composed(off);
  core::WaveRunner runner;
  for (const sweep::SweepPoint& pt : points) {
    core::WaveResult mine = blank_result();
    const std::string line_mine =
        sweep::record_json_line(composed.run(pt, 0, -1, &mine));
    const core::WaveResult ref = runner.run(pt.exp);
    const std::string line_ref = sweep::record_json_line(sweep::reduce(pt, ref));
    std::string why = trace_mismatch(mine.trace, ref.trace);
    if (why.empty() && (mine.events_processed != ref.events_processed ||
                        mine.peak_events_pending != ref.peak_events_pending))
      why = "engine counters";
    if (why.empty() && (mine.ffwd_skips != ref.ffwd_skips ||
                        mine.ffwd_time_skipped != ref.ffwd_time_skipped))
      why = "fast-forward counters";
    if (why.empty() && line_mine != line_ref) why = "record bytes";
    if (!why.empty())
      bad.push_back("recomposed point " + std::to_string(pt.index) +
                    " differs from WaveRunner::run: " + why);
  }
  return bad;
}

void export_layers(const LayerTotals& t, std::map<std::string, double>& out) {
  const auto per = [](double x, std::uint64_t n) {
    return n == 0 ? 0.0 : x / static_cast<double>(n);
  };
  const std::uint64_t setups = t.fresh_builds + t.resets;
  out["cluster.setup_us"] = per(static_cast<double>(t.setup_ns) / 1e3, setups);
  out["cluster.fresh_builds"] = static_cast<double>(t.fresh_builds);
  out["cluster.resets"] = static_cast<double>(t.resets);
  out["workload.build_us"] = per(static_cast<double>(t.build_ns) / 1e3, t.builds);
  out["workload.share"] = static_cast<double>(t.build_ns) /
                          std::max(1.0, static_cast<double>(t.point_ns));
  out["sim.run_ms"] = per(static_cast<double>(t.sim_ns) / 1e6, t.sim_points);
  out["sim.events"] = per(static_cast<double>(t.sim_events), t.sim_points);
  out["sim.ns_per_event"] =
      per(static_cast<double>(t.sim_ns), t.sim_events);
  out["sim.calendar_peak"] =
      per(static_cast<double>(t.calendar_peak), t.sim_points);
  out["sim.bytes_per_rank"] = per(t.bytes_per_rank, t.sim_points);
  out["mpi.unexpected"] = per(static_cast<double>(t.unexpected), t.sim_points);
  out["mpi.demotions"] = per(static_cast<double>(t.demotions), t.sim_points);
  out["mpi.nic_backlogged"] =
      per(static_cast<double>(t.nic_backlogged), t.sim_points);
  out["mpi.deferred_pushes"] =
      per(static_cast<double>(t.deferred_pushes), t.sim_points);
  out["ffwd.plan_ms"] = per(static_cast<double>(t.plan_ns) / 1e6, t.plans);
  out["ffwd.run_ms"] = per(static_cast<double>(t.ffwd_ns) / 1e6, t.ffwd_points);
  out["ffwd.active_ranks"] = per(static_cast<double>(t.ffwd_active), t.ffwd_points);
  out["ffwd.skips"] = per(static_cast<double>(t.ffwd_skips), t.ffwd_points);
  out["ffwd.events"] = per(static_cast<double>(t.ffwd_events), t.ffwd_points);
  out["ffwd.ns_per_silent_rank"] =
      per(static_cast<double>(t.ffwd_ns), t.ffwd_silent);
  out["ffwd.bytes_per_rank"] = per(t.ffwd_bytes_per_rank, t.ffwd_points);
  out["analysis.us"] = per(static_cast<double>(t.analysis_ns) / 1e3, t.points);
  out["record.reduce_us"] = per(static_cast<double>(t.reduce_ns) / 1e3, t.points);
}

SpanSummary summarize(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  SpanSummary sum;
  double root_self = 0.0, root_total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double total = static_cast<double>(s.t1 - s.t0);
    const double self = total - static_cast<double>(child_ns[i]);
    SpanSummary::Row& row = sum.rows[s.name];
    row.count += 1;
    row.total_ms += total / 1e6;
    row.self_ms += self / 1e6;
    // Roots with children are the point/job spans whose unlabelled time
    // is the unattributed share.
    if (s.parent < 0 && child_ns[i] > 0) {
      root_self += self;
      root_total += total;
    }
  }
  sum.unattributed_share = root_total > 0.0 ? root_self / root_total : 0.0;
  return sum;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t base = spans.empty() ? 0 : spans.front().t0;
  f << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"group\":%u}}",
                  i == 0 ? "" : ",", s.name, s.group,
                  static_cast<double>(s.t0 - base) / 1e3,
                  static_cast<double>(s.t1 - s.t0) / 1e3, i, s.parent,
                  s.group);
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace e2e
