// Deterministic end-to-end harness for the campaign service, fully
// in-process (no fork/exec, no sockets): tests drive CampaignService
// directly via submit()/pump()/drain() and get the exact protocol lines a
// socket client would read.
//
// The two acceptance certificates of the service live here:
//   (a) a cached replay is BYTE-identical to a fresh compute — the merged
//       JSONL a client assembles from the stream equals a one-shot
//       run_campaign + JsonlSink file of the same campaign;
//   (b) two overlapping campaigns recompute zero shared points.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"

namespace iw::service {
namespace {

/// Small, fast, deterministic campaign: one axis (delay) varies.
sweep::SweepSpec quick_spec(std::vector<double> delays) {
  sweep::SweepSpec spec;
  spec.delay_ms = std::move(delays);
  spec.msg_bytes = {4096};
  spec.np = {6};
  spec.steps = 6;
  spec.texec = milliseconds(1.0);
  spec.system_noise = "none";
  return spec;
}

/// Pumps until the queue drains (bounded; every pump call computes one
/// point).
void pump_dry(CampaignService& service) {
  for (int i = 0; i < 64; ++i)
    if (!service.pump()) return;
  FAIL() << "service did not drain within 64 points";
}

/// Splits drained lines into (record lines, control lines).
struct Stream {
  std::vector<std::string> records;
  std::vector<std::string> controls;
};

Stream split(const std::vector<std::string>& lines) {
  Stream s;
  for (const std::string& line : lines)
    (is_record_line(line) ? s.records : s.controls).push_back(line);
  return s;
}

/// One-shot reference: run_campaign + JsonlSink, as sweep_runner does.
std::string one_shot_jsonl(const sweep::SweepSpec& spec, int threads) {
  const std::string path =
      ::testing::TempDir() + "iw_service_oneshot.jsonl";
  {
    sweep::JsonlSink sink(path);
    sweep::RunnerOptions options;
    options.threads = threads;
    options.sinks.push_back(&sink);
    const sweep::CampaignResult result = run_campaign(spec, options);
    EXPECT_EQ(result.records.size(), result.total_points);
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string joined(const std::vector<std::string>& lines) {
  std::string all;
  for (const std::string& line : lines) {
    all += line;
    all += '\n';
  }
  return all;
}

TEST(ServiceE2E, OverlappingCampaignsShareEveryCommonPoint) {
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.metrics = &metrics;
  CampaignService service(options);

  // Campaign A: delays {6,12}. Campaign B extends the FIRST axis to
  // {6,12,18} with the same campaign seed — first-axis extension preserves
  // the shared points' indices and therefore their fork seeds.
  const SubmitResult a = service.submit("alice", 0, quick_spec({6.0, 12.0}));
  ASSERT_TRUE(a.accepted) << a.message;
  EXPECT_EQ(a.points, 2u);
  EXPECT_EQ(a.cached, 0u);
  pump_dry(service);
  ASSERT_TRUE(service.finished(a.job));

  std::vector<std::string> a_lines;
  ASSERT_TRUE(service.drain(a.job, a_lines));
  const Stream a_stream = split(a_lines);
  ASSERT_EQ(a_stream.records.size(), 2u);
  ASSERT_EQ(a_stream.controls.size(), 1u);

  const SubmitResult b =
      service.submit("bob", 0, quick_spec({6.0, 12.0, 18.0}));
  ASSERT_TRUE(b.accepted);
  EXPECT_EQ(b.points, 3u);
  EXPECT_EQ(b.cached, 2u) << "both shared points must be cache hits";
  pump_dry(service);
  ASSERT_TRUE(service.finished(b.job));

  std::vector<std::string> b_lines;
  ASSERT_TRUE(service.drain(b.job, b_lines));
  const Stream b_stream = split(b_lines);
  ASSERT_EQ(b_stream.records.size(), 3u);
  const json::Value done = json::parse(b_stream.controls.back());
  EXPECT_EQ(done.find("type")->text, "done");
  EXPECT_EQ(done.find("cache_hits")->number, 2.0);
  EXPECT_EQ(done.find("computed")->number, 1.0)
      << "zero shared points may be recomputed";

  // Across both campaigns, exactly 3 distinct points were ever computed.
  EXPECT_EQ(metrics.counter(obs::MetricId::service_points_computed), 3u);
  EXPECT_EQ(metrics.counter(obs::MetricId::service_cache_hits), 2u);
  EXPECT_EQ(service.cache_size(), 3u);

  // Certificate (a): the merged stream B assembled is byte-identical to a
  // one-shot sweep_runner-style run of the same campaign, even though two
  // of its three records were cached replays.
  EXPECT_EQ(joined(b_stream.records),
            one_shot_jsonl(quick_spec({6.0, 12.0, 18.0}), 1));
}

TEST(ServiceE2E, CachedReplayIsByteIdenticalToFreshRun) {
  CampaignService service;
  const sweep::SweepSpec spec = quick_spec({6.0, 12.0});

  const SubmitResult first = service.submit("a", 0, spec);
  ASSERT_TRUE(first.accepted);
  pump_dry(service);
  std::vector<std::string> first_lines;
  ASSERT_TRUE(service.drain(first.job, first_lines));

  // Second submission: all points come from the cache — no pump needed,
  // the job finishes inside submit().
  const SubmitResult second = service.submit("a", 0, spec);
  ASSERT_TRUE(second.accepted);
  EXPECT_EQ(second.cached, 2u);
  ASSERT_TRUE(service.finished(second.job));
  std::vector<std::string> second_lines;
  ASSERT_TRUE(service.drain(second.job, second_lines));

  EXPECT_EQ(joined(split(first_lines).records),
            joined(split(second_lines).records));
  EXPECT_EQ(joined(split(second_lines).records), one_shot_jsonl(spec, 1));
}

TEST(ServiceE2E, StreamOrderIsAscendingAndContiguous) {
  CampaignService service;
  const SubmitResult r =
      service.submit("a", 0, quick_spec({3.0, 6.0, 9.0, 12.0}));
  ASSERT_TRUE(r.accepted);
  // Every decision computes one point, and each lands as one record line.
  // Only the drain after the last point reports the end of the stream, and
  // that drain carries the terminal line.
  std::vector<std::string> lines;
  for (std::size_t done = 1; done <= 4; ++done) {
    ASSERT_TRUE(service.pump());
    std::vector<std::string> partial;
    ASSERT_TRUE(service.results_so_far(r.job, partial));
    EXPECT_EQ(partial.size(), done);
    bool over = true;
    ASSERT_TRUE(service.drain(r.job, lines, &over));
    EXPECT_EQ(over, done == 4);
    EXPECT_EQ(split(lines).controls.size(), done == 4 ? 1u : 0u);
  }
  EXPECT_FALSE(service.pump());
  const Stream s = split(lines);
  ASSERT_EQ(s.records.size(), 4u);
  ASSERT_EQ(s.controls.size(), 1u);
  EXPECT_EQ(lines.back(), s.controls.front());
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    const json::Value rec = json::parse(s.records[i]);
    EXPECT_EQ(rec.find("index")->number, static_cast<double>(i));
  }
}

TEST(ServiceE2E, StatusReportsQueueAndClients) {
  CampaignService service;
  const SubmitResult r = service.submit("carol", 0, quick_spec({6.0, 12.0}));
  ASSERT_TRUE(r.accepted);
  const json::Value before = json::parse(service.status_json());
  EXPECT_EQ(before.find("queue_depth")->number, 2.0);
  EXPECT_EQ(before.find("clients_active")->number, 1.0);
  EXPECT_EQ(before.find("jobs_open")->number, 1.0);
  pump_dry(service);
  const json::Value after = json::parse(service.status_json());
  EXPECT_EQ(after.find("queue_depth")->number, 0.0);
  EXPECT_EQ(after.find("jobs_open")->number, 0.0);
  EXPECT_EQ(after.find("points_computed")->number, 2.0);
}

// ---------------------------------------------------------------------------
// Fair share is per point: with one slot per decision, two clients with
// equal charges alternate point by point (ties go to the smaller name), so
// a client that submitted first cannot hold the workers for a whole chunk
// of its campaign.
// ---------------------------------------------------------------------------

struct JobLog {
  std::vector<std::uint64_t> jobs;
  std::vector<std::size_t> computed;
};

void log_point(void* ctx, std::uint64_t job, std::size_t computed) {
  auto* log = static_cast<JobLog*>(ctx);
  log->jobs.push_back(job);
  log->computed.push_back(computed);
}

TEST(ServiceE2E, FairShareInterleavesClientsPointByPoint) {
  JobLog log;
  ServiceOptions options;
  options.on_batch_point = &log_point;
  options.on_batch_ctx = &log;
  CampaignService service(options);

  const SubmitResult a =
      service.submit("a", 0, quick_spec({3.0, 6.0, 9.0, 12.0}));
  const SubmitResult b =
      service.submit("b", 0, quick_spec({15.0, 18.0, 21.0, 24.0}));
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  EXPECT_EQ(a.cached + b.cached, 0u);
  pump_dry(service);
  ASSERT_TRUE(service.finished(a.job));
  ASSERT_TRUE(service.finished(b.job));

  const std::vector<std::uint64_t> alternating = {a.job, b.job, a.job, b.job,
                                                  a.job, b.job, a.job, b.job};
  EXPECT_EQ(log.jobs, alternating);
  // The hook's count is the job's computed points so far: 1 on its first.
  const std::vector<std::size_t> counts = {1, 1, 2, 2, 3, 3, 4, 4};
  EXPECT_EQ(log.computed, counts);
}

TEST(ServiceE2E, ResultsReplayMatchesStream) {
  CampaignService service;
  const sweep::SweepSpec spec = quick_spec({6.0, 12.0});
  const SubmitResult r = service.submit("a", 0, spec);
  ASSERT_TRUE(r.accepted);
  pump_dry(service);
  std::vector<std::string> streamed;
  ASSERT_TRUE(service.drain(r.job, streamed));
  std::vector<std::string> replayed;
  ASSERT_TRUE(service.results_so_far(r.job, replayed));
  EXPECT_EQ(replayed, split(streamed).records);
}

}  // namespace
}  // namespace iw::service
