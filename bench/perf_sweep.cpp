// Campaign-throughput benchmark: points/sec of the sweep runner vs worker
// count, with a machine-readable BENCH_sweep.json artifact tracking the
// scaling from PR to PR.
//
// Each measured campaign is a full scenario expansion run through the
// production worker pool; the per-thread-count records are checksummed
// against the single-threaded run, so the artifact also certifies that
// parallel campaigns stay byte-deterministic. points/sec is the paper-level
// figure of merit: a Fig. 8-style scan is ~3000 simulations, and the sweep
// subsystem is what turns those from a shell loop into one process.
//
// Flags: --json=<path> (default BENCH_sweep.json), --scenario=<name>,
//        --threads=1,2,4,8 (the default drops counts above the machine's
//        hardware threads), --reps=N, --steps=N, --smoke (CI-sized run),
//        --baseline=<path> (regression-check max_speedup against a stored
//        artifact — only enforced when both artifacts are valid parallel
//        baselines, so a single-core box cannot fail on speedup noise).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "support/cli.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"

namespace {

using namespace iw;

/// FNV-1a over the serialized record fields: campaign output fingerprint.
std::uint64_t fingerprint(const std::vector<sweep::SweepRecord>& records) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0x1f;
    h *= 0x100000001b3ull;
  };
  for (const sweep::SweepRecord& rec : records)
    for (const sweep::RecordField& f : sweep::record_fields(rec)) mix(f.value);
  return h;
}

struct Run {
  int threads = 1;
  double seconds = std::numeric_limits<double>::infinity();
  double points_per_sec = 0.0;
  std::uint64_t checksum = 0;
};

/// Minimal field extraction from our own generated artifact (flat keys,
/// no nesting ambiguity) — not a general JSON parser.
struct Baseline {
  bool valid_parallel_baseline = false;
  double max_speedup = 0.0;
};

Baseline load_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read baseline " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const auto field = [&text, &path](const std::string& key) {
    const auto pos = text.find("\"" + key + "\"");
    if (pos == std::string::npos)
      throw std::runtime_error("baseline " + path + " lacks field " + key);
    const auto colon = text.find(':', pos);
    return text.substr(colon + 1, text.find_first_of(",\n}", colon) - colon - 1);
  };
  Baseline b;
  b.valid_parallel_baseline =
      field("valid_parallel_baseline").find("true") != std::string::npos;
  b.max_speedup = std::stod(field("max_speedup"));
  return b;
}

int bench_main(int argc, char** argv) {
  if (const int rc = bench::refuse_if_instrumented("perf_sweep")) return rc;
  const Cli cli(argc, argv);
  cli.allow_only(
      {"json", "scenario", "threads", "reps", "steps", "smoke", "baseline"});
  const bool smoke = cli.has("smoke");
  const std::string json_path = cli.get_or("json", "BENCH_sweep.json");
  const std::string scenario_name =
      cli.get_or("scenario", std::string{"speed_vs_delay"});
  const int reps =
      static_cast<int>(cli.get_or("reps", std::int64_t{smoke ? 1 : 3}));
  // The default ladder stops at the hardware thread count, so a default
  // run always measures real parallel scaling.
  const auto hw =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  std::vector<std::int64_t> default_threads{1};
  for (const std::int64_t t : {2, 4, 8})
    if (t <= hw && t <= (smoke ? 2 : 8)) default_threads.push_back(t);
  std::vector<std::int64_t> thread_counts =
      cli.get_list_or("threads", default_threads);

  const sweep::Scenario* scenario = sweep::find_scenario(scenario_name);
  if (!scenario)
    throw std::invalid_argument("unknown scenario: " + scenario_name);
  sweep::SweepSpec spec = scenario->spec;
  // Heavier points give stable per-campaign timings; the smoke run keeps
  // the scenario's own size.
  spec.steps = static_cast<int>(cli.get_or(
      "steps", std::int64_t{smoke ? spec.steps : 2 * spec.steps}));

  const auto points = sweep::expand(spec);
  bench::print_header(
      "perf_sweep",
      "campaign throughput: " + scenario->name + ", " +
          std::to_string(points.size()) + " points, worker-pool scaling");

  std::vector<Run> runs;
  bool reps_deterministic = true;
  for (const std::int64_t threads : thread_counts) {
    Run best;
    best.threads = static_cast<int>(threads);
    for (int r = 0; r < reps; ++r) {
      sweep::RunnerOptions options;
      options.threads = best.threads;
      const sweep::CampaignResult result =
          sweep::run_campaign(points, options);
      // Every rep gets fingerprinted — a single divergent rep must fail
      // the certification even if a correct rep happens to be fastest.
      const std::uint64_t sum = fingerprint(result.records);
      if (r == 0)
        best.checksum = sum;
      else
        reps_deterministic = reps_deterministic && sum == best.checksum;
      if (result.seconds < best.seconds) {
        best.seconds = result.seconds;
        best.points_per_sec = result.points_per_sec();
      }
    }
    runs.push_back(best);
    std::cout << best.threads << " thread(s): " << best.points_per_sec
              << " points/s (" << best.seconds << " s)\n";
  }

  // Baseline: the run with the fewest workers (threads=1 in any default
  // invocation), wherever it appears in the --threads list.
  const Run* base_run = &runs.front();
  for (const Run& r : runs)
    if (r.threads < base_run->threads) base_run = &r;
  const double base = base_run->points_per_sec;
  bool deterministic = reps_deterministic;
  double max_speedup = 0.0;
  std::int64_t max_threads = 1;
  for (const Run& r : runs) {
    deterministic = deterministic && r.checksum == base_run->checksum;
    if (base > 0) max_speedup = std::max(max_speedup, r.points_per_sec / base);
    max_threads = std::max<std::int64_t>(max_threads, r.threads);
  }
  std::cout << "\nmax speedup vs " << base_run->threads
            << " thread(s): " << max_speedup
            << "x, deterministic across thread counts: "
            << (deterministic ? "yes" : "NO") << "\n";

  // A box with fewer cores than the widest run cannot measure parallel
  // scaling — the speedup column is then noise around 1.0 and must not be
  // checked in as a baseline. The flag makes such artifacts self-describing.
  const unsigned hc = std::thread::hardware_concurrency();
  const bool valid_parallel_baseline =
      hc >= static_cast<unsigned>(max_threads);
  if (!valid_parallel_baseline) {
    std::cout << "\n*** WARNING: this machine has " << hc
              << " hardware thread(s) but the widest run used " << max_threads
              << " workers.\n*** The speedup column is MEANINGLESS here; do "
                 "not use this artifact as a scaling baseline\n*** "
                 "(summary.valid_parallel_baseline = false). Regenerate on a "
                 "machine with >= " << max_threads << " cores (e.g. the CI "
                 "runner artifact).\n";
  }

  std::ofstream out(json_path);
  if (!out) throw std::runtime_error("cannot write " + json_path);
  out.precision(6);
  out << std::fixed;
  out << "{\n"
      << "  \"bench\": \"perf_sweep\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"scenario\": \"" << scenario->name << "\",\n"
      << "  \"points\": " << points.size() << ",\n"
      << "  \"steps\": " << spec.steps << ",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    out << "    {\"threads\": " << r.threads << ", \"seconds\": " << r.seconds
        << ", \"points_per_sec\": " << r.points_per_sec
        << ", \"speedup_vs_base\": "
        << (base > 0 ? r.points_per_sec / base : 0.0) << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"summary\": {\n"
      << "    \"base_threads\": " << base_run->threads << ",\n"
      << "    \"max_speedup\": " << max_speedup << ",\n"
      << "    \"deterministic\": " << (deterministic ? "true" : "false")
      << ",\n"
      << "    \"valid_parallel_baseline\": "
      << (valid_parallel_baseline ? "true" : "false") << "\n  }\n}\n";
  std::cout << "\nwrote " << json_path << "\n";

  // Speedup regression gate: only meaningful when the stored baseline was
  // measured on enough cores AND this run is too. A single-core box (the
  // valid_parallel_baseline=false debt) skips the check loudly instead of
  // failing on noise around 1.0 — refresh the stored artifact from the CI
  // runner's bench-and-sweep upload to arm it.
  bool speedup_ok = true;
  if (const auto baseline_path = cli.get("baseline")) {
    const Baseline baseline = load_baseline(*baseline_path);
    if (!baseline.valid_parallel_baseline || !valid_parallel_baseline) {
      std::cout << "speedup gate SKIPPED: "
                << (baseline.valid_parallel_baseline
                        ? "this box cannot measure parallel scaling"
                        : "stored baseline was not a valid parallel baseline")
                << " (deterministic-output gate still enforced)\n";
    } else {
      // Allow a third of the baseline's parallel gain as run-to-run noise.
      const double floor = 1.0 + (baseline.max_speedup - 1.0) * 2.0 / 3.0;
      speedup_ok = max_speedup >= floor;
      std::cout << "speedup gate vs " << *baseline_path << ": " << max_speedup
                << "x measured, floor " << floor << "x -> "
                << (speedup_ok ? "ok" : "REGRESSION") << "\n";
    }
  }

  return deterministic && speedup_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return iw::bench::guarded_main(bench_main, argc, argv);
}
