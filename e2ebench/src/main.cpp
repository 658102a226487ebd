// e2ebench: the repository's end-to-end benchmark program. One process runs
// one workload for a fixed measured time, checks every output, prints a
// table of every metric with its unit and sample count, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace=1
// it alternates untraced and traced units and reports the per-layer
// metrics, span self times, the unattributed share and the tracing
// overhead instead of the end-to-end metrics.
//
//   e2ebench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//            --golden-dir=<dir> --scratch-dir=<dir> [--trace-out=<file>]
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "pipeline.hpp"
#include "support/cli.hpp"
#include "workloads.hpp"

namespace e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double tail_level(std::size_t n) {
  double level = 0.5;
  for (const double q : {0.9, 0.99, 0.999})
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) level = q;
  return level;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// The end-to-end metrics of BENCHMARK.json, reported by every workload.
// job_cached_ms_* and failed_frac are printed in the table only: the first
// exists on daemon_overlap alone, the second is 0 on a correct program and
// travels as the result line's attempted/failed counts.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"points_per_s", "1/s"},
    {"rank_steps_per_s", "1/s"},
    {"point_ms_p50", "ms"},
    {"point_ms_p90", "ms"},
    {"job_first_record_ms_p50", "ms"},
    {"job_cold_ms_p50", "ms"},
    {"job_cold_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
};

// The per-layer metrics of BENCHMARK.json, reported by every traced run
// (0 where the workload bypasses the layer).
constexpr Metric kPerLayer[] = {
    {"cluster.setup_us", "us"},
    {"cluster.fresh_builds", "count"},
    {"cluster.resets", "count"},
    {"workload.build_us", "us"},
    {"workload.share", "ratio"},
    {"sim.run_ms", "ms"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.calendar_peak", "count"},
    {"sim.bytes_per_rank", "B"},
    {"mpi.unexpected", "count"},
    {"mpi.demotions", "count"},
    {"mpi.nic_backlogged", "count"},
    {"mpi.deferred_pushes", "count"},
    {"ffwd.plan_ms", "ms"},
    {"ffwd.run_ms", "ms"},
    {"ffwd.active_ranks", "count"},
    {"ffwd.skips", "count"},
    {"ffwd.events", "count"},
    {"ffwd.ns_per_silent_rank", "ns"},
    {"ffwd.bytes_per_rank", "B"},
    {"analysis.us", "us"},
    {"spec.expand_ms", "ms"},
    {"record.reduce_us", "us"},
    {"record.serialize_us", "us"},
    {"record.bytes", "B"},
    {"runner.calls", "count"},
    {"runner.first_point_ms", "ms"},
    {"runner.tail_ms", "ms"},
    {"runner.efficiency", "ratio"},
    {"service.submit_ack_us", "us"},
    {"service.queue_wait_ms", "ms"},
    {"service.decisions", "count"},
    {"service.points_per_decision", "count"},
    {"service.cache_hits", "count"},
    {"service.cache_misses", "count"},
    {"service.hit_ratio", "ratio"},
    {"service.inflight_shares", "count"},
    {"service.rejections", "count"},
    {"server.status_rtt_us", "us"},
    {"server.lines", "count"},
    {"server.bytes", "B"},
    {"stream.gap_us_p90", "us"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"trace.identity_points", "count"},
};

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(x) ? x : 0.0);
  return buf;
}

/// Table row: median plus the highest percentile with >= 10 samples beyond.
void latency_row(const char* name, const std::vector<double>& v) {
  if (v.empty()) {
    std::printf("  %-26s %12s  (n=0)\n", name, "n/a");
    return;
  }
  const double tail = tail_level(v.size());
  std::printf("  %-26s p50 %10.4f ms  p90 %10.4f ms  p%-5g %10.4f ms  (n=%zu)\n",
              name, quantile(v, 0.5), quantile(v, 0.9), tail * 100.0,
              quantile(v, tail), v.size());
}

std::map<std::string, double> end_to_end(const Outcome& o) {
  std::map<std::string, double> m;
  m["setup_s"] = median(o.setup_s);
  m["points_per_s"] = o.wall_s > 0 ? static_cast<double>(o.points) / o.wall_s : 0.0;
  m["rank_steps_per_s"] = o.wall_s > 0 ? static_cast<double>(o.rank_steps) / o.wall_s : 0.0;
  m["point_ms_p50"] = quantile(o.point_ms, 0.5);
  m["point_ms_p90"] = quantile(o.point_ms, 0.9);
  m["job_first_record_ms_p50"] = quantile(o.job_first_ms, 0.5);
  m["job_cold_ms_p50"] = quantile(o.job_cold_ms, 0.5);
  m["job_cold_ms_p90"] = quantile(o.job_cold_ms, 0.9);
  m["peak_rss_mb"] = o.peak_rss_mb;
  return m;
}

void print_end_to_end(const std::string& workload, const Outcome& o) {
  const auto m = end_to_end(o);
  std::printf("end-to-end metrics, workload %s (untraced, %.3f s measured)\n",
              workload.c_str(), o.wall_s);
  std::printf("  %-26s %14.6f s    (median of n=%zu set-ups)\n", "setup_s",
              m.at("setup_s"), o.setup_s.size());
  std::printf("  %-26s %14.3f 1/s  (n=%llu points)\n", "points_per_s",
              m.at("points_per_s"), static_cast<unsigned long long>(o.points));
  std::printf("  %-26s %14.6g 1/s  (n=%llu points)\n", "rank_steps_per_s",
              m.at("rank_steps_per_s"), static_cast<unsigned long long>(o.points));
  latency_row("point_ms", o.point_ms);
  latency_row("job_first_record_ms", o.job_first_ms);
  latency_row("job_cold_ms", o.job_cold_ms);
  latency_row("job_cached_ms", o.job_cached_ms);
  std::printf("  %-26s %14.3f MB\n", "peak_rss_mb", m.at("peak_rss_mb"));
  std::printf("  %-26s %14.6f     (%llu failed of %llu attempted)\n",
              "failed_frac",
              o.attempted ? static_cast<double>(o.failed) / static_cast<double>(o.attempted) : 0.0,
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted));
}

void print_layers(const Outcome& o, const SpanSummary& sum) {
  std::printf("per-layer metrics (traced units)\n");
  for (const Metric& m : kPerLayer) {
    const auto it = o.layer.find(m.name);
    std::printf("  %-28s %16.6g %s\n", m.name, it == o.layer.end() ? 0.0 : it->second, m.unit);
  }
  std::printf("span self times\n  %-20s %10s %12s %12s\n", "span", "count",
              "total_ms", "self_ms");
  for (const auto& [name, row] : sum.rows)
    std::printf("  %-20s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(row.count), row.total_ms,
                row.self_ms);
  std::printf("tracing overhead: untraced %.3f, traced %.3f units/s\n",
              o.untraced_rate, o.traced_rate);
}

int run(int argc, char** argv) {
  if (const int rc = iw::bench::refuse_if_instrumented("e2ebench"); rc != 0) return rc;
  const std::string build_type = E2E_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::cerr << "e2ebench: refusing to run: build type '" << build_type
              << "' is not an optimized build\n";
    return 2;
  }
  iw::Cli cli(argc, argv);
  cli.allow_only({"workload", "seed", "seconds", "trace", "golden-dir",
                  "scratch-dir", "trace-out"});
  Config cfg;
  cfg.workload = cli.get_or("workload", std::string());
  cfg.seed = static_cast<std::uint64_t>(std::stoull(cli.get_or("seed", std::string("1"))));
  cfg.seconds = std::stod(cli.get_or("seconds", std::string("10")));
  cfg.trace = cli.get_or("trace", std::string("0")) == "1";
  cfg.golden_dir = cli.get_or("golden-dir", std::string("tests/golden"));
  cfg.scratch_dir = cli.get_or("scratch-dir", std::string("."));
  cfg.trace_out = cli.get_or("trace-out", std::string());
  cfg.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (cfg.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");

  using Runner = void (*)(const Config&, SpanLog&, Outcome&);
  const std::map<std::string, Runner> workloads = {
      {"campaign_small", &run_campaign_small},
      {"point_heavy", &run_point_heavy},
      {"daemon_overlap", &run_daemon_overlap},
      {"scale_mixed", &run_scale_mixed},
  };
  const auto it = workloads.find(cfg.workload);
  if (it == workloads.end())
    throw std::invalid_argument("unknown --workload '" + cfg.workload + "'");

  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "build=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.nproc, build_type.c_str());
  SpanLog log(cfg.trace);
  Outcome out;
  it->second(cfg, log, out);
  for (const std::string& n : out.notes) std::printf("config: %s\n", n.c_str());
  for (const std::string& f : out.failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("oracle flags (injected-noise records outside the catalog "
              "campaign, not failures): %llu records in %llu campaigns\n",
              static_cast<unsigned long long>(out.oracle_flags),
              static_cast<unsigned long long>(out.oracle_campaigns));
  for (const std::string& f : out.flag_notes) std::printf("  flag: %s\n", f.c_str());

  std::map<std::string, double> metrics;
  const Metric* begin = kEndToEnd;
  const Metric* end = kEndToEnd + std::size(kEndToEnd);
  if (cfg.trace) {
    const SpanSummary sum = summarize(log.spans());
    out.layer["trace.unattributed_share"] = sum.unattributed_share;
    out.layer["trace.overhead_share"] =
        out.traced_rate > 0 ? out.untraced_rate / out.traced_rate - 1.0 : 0.0;
    out.layer["spec.expand_ms"] = median(out.expand_ms);
    if (const auto s = sum.rows.find("record.serialize");
        s != sum.rows.end() && out.layer.count("record.serialize_us") == 0)
      out.layer["record.serialize_us"] =
          s->second.total_ms * 1e3 / static_cast<double>(s->second.count);
    print_layers(out, sum);
    if (!cfg.trace_out.empty() && !write_chrome_trace(log.spans(), cfg.trace_out))
      out.fail("cannot write the span file " + cfg.trace_out);
    metrics = out.layer;
    begin = kPerLayer;
    end = kPerLayer + std::size(kPerLayer);
  } else {
    print_end_to_end(cfg.workload, out);
    metrics = end_to_end(out);
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (const Metric* m = begin; m != end; ++m) {
    const auto v = metrics.find(m->name);
    json += (m == begin ? "\"" : ", \"") + std::string(m->name) +
            "\": {\"value\": " + num(v == metrics.end() ? 0.0 : v->second) +
            ", \"unit\": \"" + m->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  return iw::bench::guarded_main(&e2e::run, argc, argv);
}
