#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "pipeline.hpp"
#include "service/protocol.hpp"
#include "support/csv.hpp"
#include "sweep/runner.hpp"
#include "verify/diff.hpp"
#include "verify/golden.hpp"
#include "verify/oracle.hpp"

namespace e2e {

using namespace iw;

std::vector<const sweep::Scenario*> simulated_scenarios() {
  std::vector<const sweep::Scenario*> out;
  for (const sweep::Scenario& s : sweep::scenario_catalog())
    if (s.spec.ffwd == "off") out.push_back(&s);
  return out;
}

void check_oracles(const sweep::Scenario& base, const sweep::SweepSpec& spec,
                   const std::vector<sweep::SweepRecord>& records,
                   Outcome& out) {
  sweep::Scenario copy = base;
  copy.spec = spec;
  const verify::OracleReport report = verify::check_oracles(copy, records);
  // The oracle bounds are calibrated on the catalog campaign, where every
  // violation fails. Elsewhere a violation on a record with injected noise,
  // whose observables the noise-free analytic model predicts only on
  // average, is counted and printed as a flag instead.
  const bool catalog =
      service::spec_to_json(spec) == service::spec_to_json(base.spec);
  std::map<std::uint64_t, double> noise_of;
  for (const sweep::SweepRecord& r : records) noise_of[r.index] = r.noise_E_percent;
  out.oracle_campaigns += 1;
  std::set<std::uint64_t> failed, flagged;
  for (const verify::OracleViolation& v : report.violations) {
    const double noise = noise_of.count(v.record_index) ? noise_of[v.record_index] : 0.0;
    const std::string what = base.name + " seed " +
                             std::to_string(spec.campaign_seed) + " point " +
                             std::to_string(v.record_index) + " (E=" +
                             std::to_string(noise) + "%): oracle " + v.check +
                             " (" + v.detail + ")";
    if (!catalog && noise > 0.0) {
      if (flagged.insert(v.record_index).second && out.flag_notes.size() < 4)
        out.flag_notes.push_back(what);
    } else if (failed.insert(v.record_index).second) {
      out.fail(what);
    }
  }
  out.oracle_flags += flagged.size();
}

void record_identity(const std::vector<sweep::SweepPoint>& pts, Outcome& out) {
  for (const std::string& why : identity_check(pts)) out.fail(why);
  out.layer["trace.identity_points"] = static_cast<double>(pts.size());
}

std::uint64_t rank_steps(const sweep::SweepSpec& spec,
                         const sweep::SweepPoint& pt) {
  return static_cast<std::uint64_t>(pt.np) *
         static_cast<std::uint64_t>(spec.steps);
}

namespace {

/// JSON-Lines sink through record_json_line (the bytes JsonlSink writes),
/// stamping each record's arrival and, when tracing, spanning the
/// serialization and the file write separately.
class TimedJsonlSink final : public sweep::RecordSink {
 public:
  TimedJsonlSink(const std::string& path, SpanLog& log, std::uint32_t group,
                 int parent)
      : writer_(path), log_(log), group_(group), parent_(parent) {}

  void write(const sweep::SweepRecord& rec) override {
    const int s = log_.open("record.serialize", group_, parent_);
    const std::string line = sweep::record_json_line(rec);
    log_.close(s);
    const int w = log_.open("record.write", group_, parent_);
    writer_.raw_line(line);
    log_.close(w);
    stamps.push_back(now_ns());
    bytes += line.size() + 1;
  }

  std::vector<std::int64_t> stamps;
  std::uint64_t bytes = 0;

 private:
  JsonlWriter writer_;
  SpanLog& log_;
  std::uint32_t group_;
  int parent_;
};

/// Deterministic Fisher-Yates permutation of [0, n).
std::vector<std::size_t> permutation(std::size_t n, Gen& gen) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[gen.below(i)]);
  return order;
}

/// First point of each scenario under `seed`: the identity-check sample.
std::vector<sweep::SweepPoint> first_points(
    const std::vector<sweep::SweepSpec>& specs) {
  std::vector<sweep::SweepPoint> pts;
  for (const sweep::SweepSpec& spec : specs) pts.push_back(sweep::expand(spec).front());
  return pts;
}

}  // namespace

// --- campaign_small ---------------------------------------------------------

void run_campaign_small(const Config& cfg, SpanLog& log, Outcome& out) {
  const auto scenarios = simulated_scenarios();
  const int threads = cfg.nproc;
  const std::string sink_path = cfg.scratch_dir + "/campaign_small.jsonl";
  out.notes.push_back("campaign_small: run_campaign threads=" +
                      std::to_string(threads) + ", scenarios=" +
                      std::to_string(scenarios.size()));

  const auto setup = [&](bool) {
    const std::int64_t e0 = now_ns();
    std::size_t n = 0;
    for (const sweep::Scenario* s : scenarios) n += sweep::expand(s->spec).size();
    out.expand_ms.push_back(ms(now_ns() - e0));
    const sweep::SweepPoint first = sweep::expand(scenarios.front()->spec).front();
    const core::Cluster cluster(first.exp.cluster);
    JsonlWriter sink(sink_path);
    if (n == 0) throw std::runtime_error("empty catalog");
  };
  measure_setup(kSetupReps, out, setup);

  Gen gen(cfg.seed);
  std::int64_t budget_ns = static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::int64_t spent_ns = 0, untraced_ns = 0, traced_ns = 0;
  std::uint64_t traced_points = 0, calls_traced = 0;
  std::int64_t first_point_ns = 0, tail_ns = 0;
  std::uint64_t pool_builds = 0;
  std::uint64_t record_bytes = 0, records_traced = 0;
  // The first traced round is replayed serially afterwards (layer split and
  // pool efficiency), so its seed and call walls are kept.
  std::uint64_t replay_seed = 0;
  std::int64_t replay_wall_ns = 0;
  bool have_replay = false;
  std::uint32_t group = 0;

  for (std::uint64_t round = 0; spent_ns < budget_ns; ++round) {
    const std::uint64_t seed = gen.next();
    const bool traced = log.enabled() && round % 2 == 1;
    SpanLog quiet(false);
    SpanLog& spans = traced ? log : quiet;
    for (const sweep::Scenario* sc : scenarios) {
      sweep::SweepSpec spec = sc->spec;
      if (round > 0) spec.campaign_seed = seed;  // round 0: catalog seed
      ++group;
      // One user request: expand + run_campaign, streaming to the sink.
      const std::int64_t t0 = now_ns();
      const int call = spans.open("campaign", group, -1);
      std::vector<sweep::SweepPoint> points;
      {
        const Scope expand(spans, "spec.expand", group, call);
        points = sweep::expand(spec);
      }
      const int run = spans.open("runner.run", group, call);
      TimedJsonlSink sink(sink_path, spans, group, run);
      std::vector<std::thread::id> done_by;
      sweep::RunnerOptions opts;
      opts.threads = threads;
      opts.sinks = {&sink};
      opts.on_progress = [&done_by](std::size_t, std::size_t) {
        done_by.push_back(std::this_thread::get_id());
      };
      sweep::CampaignResult res;
      try {
        res = sweep::run_campaign(points, opts);
      } catch (const std::exception& e) {
        out.attempted += points.size();
        out.fail(sc->name + ": run_campaign threw: " + e.what());
        continue;
      }
      spans.close(run);
      spans.close(call);
      const std::int64_t t1 = now_ns();
      spent_ns += t1 - t0;
      out.attempted += res.records.size();
      if (res.records.size() != spec.points())
        out.fail(sc->name + ": campaign returned " +
                 std::to_string(res.records.size()) + " of " +
                 std::to_string(spec.points()) + " records");

      std::uint64_t work = 0;
      for (const sweep::SweepPoint& pt : points) work += rank_steps(spec, pt);
      if (traced) {
        traced_ns += t1 - t0;
        traced_points += res.records.size();
        calls_traced += 1;
        if (!sink.stamps.empty()) {
          first_point_ns += sink.stamps.front() - t0;
          tail_ns += t1 - sink.stamps.back();
        }
        std::sort(done_by.begin(), done_by.end());
        pool_builds += static_cast<std::uint64_t>(
            std::unique(done_by.begin(), done_by.end()) - done_by.begin());
        record_bytes += sink.bytes;
        records_traced += sink.stamps.size();
        if (!have_replay) replay_wall_ns += t1 - t0;
      } else {
        untraced_ns += t1 - t0;
        out.points += res.records.size();
        out.rank_steps += work;
        for (const std::int64_t s : sink.stamps) out.point_ms.push_back(ms(s - t0));
        if (!sink.stamps.empty())
          out.job_first_ms.push_back(ms(sink.stamps.front() - t0));
        out.job_cold_ms.push_back(ms(t1 - t0));
      }

      // Correctness, outside the measured window.
      check_oracles(*sc, spec, res.records, out);
      if (round == 0) {
        const auto golden =
            verify::load_golden(verify::golden_path(cfg.golden_dir, sc->name));
        const verify::DiffReport diff =
            verify::diff_records(golden.records, res.records, {}, true);
        std::set<std::uint64_t> differing;
        for (const verify::FieldDiff& d : diff.field_diffs) differing.insert(d.record_index);
        for (std::size_t i = 0; i < differing.size() + diff.structural.size(); ++i)
          out.fail(sc->name + ": catalog-seed round differs from the golden "
                   "corpus (" + std::to_string(diff.field_diffs.size()) +
                   " fields, " + std::to_string(diff.structural.size()) +
                   " structural problems)");
      }
    }
    if (traced && !have_replay) {
      replay_seed = seed;
      have_replay = true;
    }
  }
  out.wall_s = static_cast<double>(untraced_ns) / 1e9;
  out.peak_rss_mb = peak_rss_mb();
  measure_setup(kSetupReps, out, setup);
  if (!log.enabled()) return;

  out.untraced_rate = static_cast<double>(out.points) / (static_cast<double>(untraced_ns) / 1e9);
  out.traced_rate = static_cast<double>(traced_points) / (static_cast<double>(traced_ns) / 1e9);

  // Serial recomposed replay of the first traced round: the per-point layer
  // split, and the pool's efficiency against it.
  ComposedRunner composed(log);
  std::vector<sweep::SweepSpec> replay_specs;
  for (const sweep::Scenario* sc : scenarios) {
    sweep::SweepSpec spec = sc->spec;
    spec.campaign_seed = replay_seed;
    for (const sweep::SweepPoint& pt : sweep::expand(spec)) composed.run(pt, ++group, -1);
    replay_specs.push_back(spec);
  }
  export_layers(composed.totals, out.layer);
  record_identity(first_points(replay_specs), out);
  out.layer["cluster.fresh_builds"] = static_cast<double>(pool_builds);
  out.layer["cluster.resets"] = static_cast<double>(traced_points - pool_builds);
  out.layer["runner.calls"] = static_cast<double>(calls_traced);
  out.layer["runner.first_point_ms"] = ms(first_point_ns) / static_cast<double>(std::max<std::uint64_t>(1, calls_traced));
  out.layer["runner.tail_ms"] = ms(tail_ns) / static_cast<double>(std::max<std::uint64_t>(1, calls_traced));
  out.layer["runner.efficiency"] =
      static_cast<double>(composed.totals.point_ns) /
      (threads * std::max<double>(1.0, static_cast<double>(replay_wall_ns)));
  out.layer["record.bytes"] = static_cast<double>(record_bytes) / static_cast<double>(std::max<std::uint64_t>(1, records_traced));
}

// --- point_heavy --------------------------------------------------------------

namespace {

constexpr int kHeavySteps = 400;

/// Serial single-thread points: untraced through WaveRunner::run + reduce,
/// traced through the recomposed pipeline, as the caller's unit index says.
struct SerialLoop {
  const Config& cfg;
  SpanLog& log;
  Outcome& out;
  core::WaveRunner runner;
  ComposedRunner composed;
  std::int64_t untraced_ns = 0, traced_ns = 0;
  std::uint64_t traced_points = 0;

  // Moves to the next CPU every 250 ms (see CpuRotor).
  CpuRotor rotor;
  std::int64_t moved_at = 0;

  SerialLoop(const Config& c, SpanLog& l, Outcome& o)
      : cfg(c), log(l), out(o), composed(l) {}

  void rotate() {
    const std::int64_t t = now_ns();
    if (t - moved_at < 250'000'000) return;
    moved_at = t;
    rotor.next();
  }

  /// Runs one point; returns its record (check pending).
  sweep::SweepRecord run(const sweep::SweepSpec& spec,
                         const sweep::SweepPoint& pt, std::uint64_t k) {
    rotate();
    const bool traced = log.enabled() && k % 2 == 1;
    const std::int64_t t0 = now_ns();
    sweep::SweepRecord rec =
        traced ? composed.run(pt, static_cast<std::uint32_t>(k), -1)
               : sweep::reduce(pt, runner.run(pt.exp));
    const std::int64_t dt = now_ns() - t0;
    out.attempted += 1;
    if (traced) {
      traced_ns += dt;
      traced_points += 1;
    } else {
      untraced_ns += dt;
      out.points += 1;
      out.rank_steps += rank_steps(spec, pt);
      out.point_ms.push_back(ms(dt));
      out.job_first_ms.push_back(ms(dt));
      out.job_cold_ms.push_back(ms(dt));
    }
    return rec;
  }

  [[nodiscard]] bool more() const {
    return static_cast<double>(untraced_ns + traced_ns) < cfg.seconds * 1e9;
  }

  void finish() {
    out.wall_s = static_cast<double>(untraced_ns) / 1e9;
    out.peak_rss_mb = peak_rss_mb();
    if (!log.enabled()) return;
    out.untraced_rate = static_cast<double>(out.points) / (static_cast<double>(untraced_ns) / 1e9);
    out.traced_rate = static_cast<double>(traced_points) / (static_cast<double>(traced_ns) / 1e9);
    export_layers(composed.totals, out.layer);
  }
};

}  // namespace

void run_point_heavy(const Config& cfg, SpanLog& log, Outcome& out) {
  const auto scenarios = simulated_scenarios();
  out.notes.push_back("point_heavy: serial WaveRunner::run, threads=1, steps=" +
                      std::to_string(kHeavySteps));
  Gen gen(cfg.seed);
  const auto specs_for = [&](std::uint64_t seed) {
    std::vector<sweep::SweepSpec> specs;
    for (const sweep::Scenario* sc : scenarios) {
      sweep::SweepSpec spec = sc->spec;
      spec.steps = kHeavySteps;
      spec.campaign_seed = seed;
      specs.push_back(spec);
    }
    return specs;
  };

  const auto setup = [&](bool) {
    const std::int64_t e0 = now_ns();
    std::size_t n = 0;
    for (const sweep::SweepSpec& spec : specs_for(cfg.seed)) n += sweep::expand(spec).size();
    out.expand_ms.push_back(ms(now_ns() - e0));
    const auto first = sweep::expand(specs_for(cfg.seed).front()).front();
    const core::Cluster cluster(first.exp.cluster);
    if (n == 0) throw std::runtime_error("empty catalog");
  };
  measure_setup(kSetupReps, out, setup);

  SerialLoop loop(cfg, log, out);
  std::uint64_t k = 0;
  std::vector<sweep::SweepSpec> first_specs;
  while (loop.more()) {
    const auto specs = specs_for(gen.next());
    if (first_specs.empty()) first_specs = specs;
    std::vector<std::pair<std::size_t, sweep::SweepPoint>> round;
    for (std::size_t s = 0; s < specs.size(); ++s)
      for (sweep::SweepPoint& pt : sweep::expand(specs[s])) round.emplace_back(s, std::move(pt));
    std::vector<std::vector<sweep::SweepRecord>> recs(specs.size());
    for (const std::size_t i : permutation(round.size(), gen)) {
      if (!loop.more()) break;
      const auto& [s, pt] = round[i];
      recs[s].push_back(loop.run(specs[s], pt, k++));
    }
    for (std::size_t s = 0; s < specs.size(); ++s) {
      std::sort(recs[s].begin(), recs[s].end(),
                [](const auto& a, const auto& b) { return a.index < b.index; });
      check_oracles(*scenarios[s], specs[s], recs[s], out);
    }
  }
  loop.finish();
  measure_setup(kSetupReps, out, setup);
  if (log.enabled()) record_identity(first_points(first_specs), out);
}

// --- scale_mixed ----------------------------------------------------------------

void run_scale_mixed(const Config& cfg, SpanLog& log, Outcome& out) {
  const sweep::Scenario* scale = sweep::find_scenario("scale_wave");
  if (scale == nullptr) throw std::runtime_error("scale_wave scenario missing");
  // Shape A: fast-forward at machine scale. Shape B: the same shape with 5%
  // injected noise, which makes it ineligible, at a size whose working set
  // is far beyond cache.
  sweep::SweepSpec shape_a = scale->spec;
  shape_a.np = {1048576};
  shape_a.ffwd = "auto";
  sweep::SweepSpec shape_b = scale->spec;
  shape_b.np = {10240};
  shape_b.noise_E_percent = {5.0};
  shape_b.ffwd = "auto";
  out.notes.push_back("scale_mixed: serial, threads=1, 2x np=1048576 ffwd=auto "
                      "then 1x np=10240 E=5%, repeated");

  const auto setup = [&](bool) {
    const std::int64_t e0 = now_ns();
    const auto a = sweep::expand(shape_a);
    const auto b = sweep::expand(shape_b);
    out.expand_ms.push_back(ms(now_ns() - e0));
    const core::Cluster cluster(a.front().exp.cluster);
    if (b.empty()) throw std::runtime_error("empty expansion");
  };
  measure_setup(kScaleSetupReps, out, setup);

  Gen gen(cfg.seed);
  SerialLoop loop(cfg, log, out);
  std::vector<sweep::SweepPoint> first;
  // Two fast-forward points per noisy one: wall time still splits about
  // evenly between the shapes, and the latency median falls inside the
  // fast-forward mode instead of on the gap between the two modes. Whole
  // cycles alternate between untraced and traced.
  for (std::uint64_t cycle = 0; loop.more(); ++cycle) {
    for (sweep::SweepSpec* shape : {&shape_a, &shape_a, &shape_b}) {
      shape->campaign_seed = gen.next();
      const auto pts = sweep::expand(*shape);
      const bool ffwd_shape = shape == &shape_a;
      if (first.size() < (ffwd_shape ? 1u : 2u)) first.push_back(pts.front());
      const sweep::SweepRecord rec = loop.run(*shape, pts.front(), cycle);
      if (ffwd_shape ? rec.ffwd_skips == 0 : rec.ffwd_skips != 0)
        out.fail("scale_mixed: np=" + std::to_string(rec.np) +
                 " point ran the wrong path (ffwd_skips=" +
                 std::to_string(rec.ffwd_skips) + ")");
      check_oracles(*scale, *shape, {rec}, out);
    }
  }
  loop.finish();
  measure_setup(kScaleSetupReps, out, setup);
  if (log.enabled()) record_identity(first, out);
}

}  // namespace e2e
