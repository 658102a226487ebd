// daemon_overlap: an in-process campaign daemon on an AF_UNIX socket, driven
// by two closed-loop client connections multiplexed from this thread.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/cluster.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/framing.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "sweep/runner.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace iw;

namespace {

constexpr int kConnections = 2;

/// The daemon keeps every job and cached record, so its memory grows with
/// the jobs a run completes. Peak RSS is read after this many finished jobs,
/// a fixed amount of work, so a faster daemon does not read as a fatter one.
constexpr std::uint64_t kRssJobs = 2000;

/// Keeps each value of every multi-valued axis with probability 1/2, and at
/// least one.
template <typename T>
void draw_subset(std::vector<T>& axis, Gen& gen) {
  if (axis.size() < 2) return;
  std::vector<T> kept;
  for (const T& v : axis)
    if (gen.next() & 1) kept.push_back(v);
  if (kept.empty()) kept.push_back(axis[gen.below(axis.size())]);
  axis = std::move(kept);
}

/// Seen from the service's batch hook (worker threads): when each job's
/// first point completed, and which threads completed points per batch.
struct BatchProbe {
  std::mutex mu;
  std::map<std::uint64_t, std::int64_t> first_point_ns;
  std::uint64_t batches = 0;
  std::uint64_t builds = 0;  ///< distinct worker threads per batch, summed
  std::set<std::thread::id> batch_threads;

  static void hook(void* ctx, std::uint64_t job, std::size_t done_in_batch) {
    auto* self = static_cast<BatchProbe*>(ctx);
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lk(self->mu);
    if (done_in_batch == 1) {
      self->batches += 1;
      self->batch_threads.clear();
    }
    if (self->batch_threads.insert(std::this_thread::get_id()).second)
      self->builds += 1;
    self->first_point_ns.emplace(job, t);
  }
};

struct Job {
  std::size_t scenario = 0;
  sweep::SweepSpec spec;
  std::string key;  ///< spec_to_json: identical specs, identical jobs
  bool traced = false;
  std::uint32_t group = 0;
  std::uint64_t id = 0;
  std::size_t points = 0, cached = 0;
  std::size_t done_hits = 0;
  bool accepted = false;
  std::int64_t submit = 0, ack = 0, first_record = 0, end = 0;
  std::vector<std::uint64_t> record_hashes;
  std::vector<std::int64_t> record_ns;
  std::uint64_t lines = 0, bytes = 0;
  std::string error;
};

struct Client {
  ScopedFd fd;
  LineBuffer in;
  std::unique_ptr<Job> job;  ///< in flight, or null when idle
  std::int64_t status_sent = 0;
};

}  // namespace

void run_daemon_overlap(const Config& cfg, SpanLog& log, Outcome& out) {
  const auto scenarios = simulated_scenarios();
  const int service_threads = std::max(1, cfg.nproc - 1);
  if (service_threads + 1 > cfg.nproc)
    throw std::runtime_error(
        "daemon_overlap needs " + std::to_string(service_threads) +
        " service workers plus the client thread, more than nproc=" +
        std::to_string(cfg.nproc));
  out.notes.push_back("daemon_overlap: service threads=" +
                      std::to_string(service_threads) + ", client connections=" +
                      std::to_string(kConnections) + " (closed loop, one client thread)");
  const std::string sock = cfg.scratch_dir + "/idlewaved-" +
                           std::to_string(::getpid()) + ".sock";

  obs::MetricsRegistry registry;
  BatchProbe probe;
  std::unique_ptr<service::Server> server;
  std::vector<Client> clients(kConnections);
  const auto start_server = [&] {
    service::ServerOptions so;
    so.socket_path = sock;
    so.service.threads = service_threads;
    so.service.metrics = &registry;
    so.service.on_batch_point = &BatchProbe::hook;
    so.service.on_batch_ctx = &probe;
    server = std::make_unique<service::Server>(so);
    server->start();
    for (Client& c : clients) c.fd = unix_connect(sock);
  };
  const auto stop_server = [&] {
    for (Client& c : clients) c.fd.reset();
    server->stop();
    server->wait();
    server.reset();
  };
  const auto setup = [&](bool keep) {
    const std::int64_t e0 = now_ns();
    std::size_t n = 0;
    for (const sweep::Scenario* s : scenarios) n += sweep::expand(s->spec).size();
    out.expand_ms.push_back(ms(now_ns() - e0));
    const auto first = sweep::expand(scenarios.front()->spec).front();
    const core::Cluster cluster(first.exp.cluster);
    start_server();
    if (!keep) stop_server();
    if (n == 0) throw std::runtime_error("empty catalog");
  };
  measure_setup(kSetupReps, out, setup, /*rotate=*/false);
  registry.clear();

  std::vector<std::unique_ptr<Job>> history;  // finished jobs

  // The job plan: each connection draws its own sequence from the seed, so
  // the inputs do not depend on timing. The mix is 1/2 fresh jobs, 1/4
  // overlaps and 1/4 exact repeats of an earlier job of the same
  // connection. An overlap resubmits the other connection's concurrent job
  // (connection 1's job k pairs with connection 0's job k, connection 0's
  // job k with connection 1's job k-1), so its points are shared in flight
  // or hit the cache. A different axis subset would share no points: a
  // point's seed, and with it its cache key, follows its index.
  struct Planned {
    std::size_t scenario = 0;
    sweep::SweepSpec spec;
  };
  std::vector<Gen> gens = {Gen(cfg.seed), Gen(cfg.seed ^ 0xC0FFEE5EEDull)};
  std::vector<std::vector<Planned>> plan(kConnections);
  const auto planned = [&](auto& self, std::size_t conn, std::size_t k) -> const Planned& {
    while (plan[conn].size() <= k) {
      const std::size_t i = plan[conn].size();
      Gen& gen = gens[conn];
      const std::size_t kind = gen.below(4);
      const bool has_partner = conn == 1 || i > 0;
      Planned p;
      if (kind == 2 && has_partner) {
        p = self(self, 1 - conn, conn == 1 ? i : i - 1);
      } else if (kind == 3 && i > 0) {
        p = plan[conn][gen.below(i)];
      } else {
        p.scenario = gen.below(scenarios.size());
        p.spec = scenarios[p.scenario]->spec;
        p.spec.campaign_seed = gen.next();
#define IW_AXIS_SUBSET(field, Type, flag, column, default_) \
  draw_subset(p.spec.field, gen);
        IW_SWEEP_AXES(IW_AXIS_SUBSET)
#undef IW_AXIS_SUBSET
      }
      plan[conn].push_back(std::move(p));
    }
    return plan[conn][k];
  };
  std::vector<std::size_t> submitted(kConnections, 0);
  const auto next_job = [&](std::size_t conn) {
    const Planned& p = planned(planned, conn, submitted[conn]++);
    auto job = std::make_unique<Job>();
    job->scenario = p.scenario;
    job->spec = p.spec;
    job->key = service::spec_to_json(job->spec);
    return job;
  };

  const bool tracing = log.enabled();
  const std::int64_t budget = static_cast<std::int64_t>(cfg.seconds * 1e9);
  const std::int64_t t_start = now_ns();
  std::uint32_t group = 0;
  std::vector<double> ack_us, queue_wait_ms, status_rtt_us, gaps_us;
  std::uint64_t inflight_shares = 0;
  std::uint64_t phase_points[2] = {0, 0};  // cold points, untraced/traced
  std::uint64_t traced_jobs = 0, traced_lines = 0, traced_bytes = 0;
  std::uint64_t traced_done = 0;

  double rss_at_mark = 0.0;
  const auto finish_job = [&](Client& c, std::int64_t t) {
    std::unique_ptr<Job> job = std::move(c.job);
    job->end = t;
    if (history.size() + 1 == kRssJobs) rss_at_mark = peak_rss_mb();
    out.attempted += job->points;
    if (!job->error.empty()) {
      out.fail("job " + std::to_string(job->id) + ": " + job->error);
      return;
    }
    const bool cached = job->cached == job->points;
    inflight_shares += job->done_hits - job->cached;
    const std::int64_t total = job->end - job->submit;
    if (!cached) phase_points[job->traced ? 1 : 0] += job->record_hashes.size();
    if (job->traced) {
      const int root = log.add("job", job->group, -1, job->submit, job->end);
      log.add("service.submit_ack", job->group, root, job->submit, job->ack);
      ack_us.push_back(static_cast<double>(job->ack - job->submit) / 1e3);
      // Queue wait and dispatch only for jobs with no cached prefix: a
      // replayed prefix streams while the first computed point still waits.
      if (job->cached == 0) {
        std::lock_guard<std::mutex> lk(probe.mu);
        const auto it = probe.first_point_ns.find(job->id);
        if (it != probe.first_point_ns.end() && it->second > job->ack) {
          log.add("service.queue_wait", job->group, root, job->ack, it->second);
          queue_wait_ms.push_back(ms(it->second - job->ack));
          if (job->first_record > it->second)
            log.add("service.dispatch", job->group, root, it->second,
                    job->first_record);
        }
      }
      if (job->first_record > 0)
        log.add("server.stream", job->group, root, job->first_record, job->end);
      traced_jobs += 1;
      traced_lines += job->lines;
      traced_bytes += job->bytes;
      // Gaps between reads that delivered this job's records (lines that
      // arrive in one read share its timestamp).
      for (std::size_t i = 1; i < job->record_ns.size(); ++i)
        if (job->record_ns[i] != job->record_ns[i - 1])
          gaps_us.push_back(static_cast<double>(job->record_ns[i] - job->record_ns[i - 1]) / 1e3);
    } else if (cached) {
      out.job_cached_ms.push_back(ms(total));
    } else {
      out.job_cold_ms.push_back(ms(total));
      if (job->first_record > 0) out.job_first_ms.push_back(ms(job->first_record - job->submit));
      for (const std::int64_t r : job->record_ns) out.point_ms.push_back(ms(r - job->submit));
      out.points += job->record_hashes.size();
      for (const sweep::SweepPoint& pt : sweep::expand(job->spec))
        out.rank_steps += rank_steps(job->spec, pt);
    }
    history.push_back(std::move(job));
  };

  const auto handle_line = [&](Client& c, const std::string& line,
                               std::int64_t t) {
    if (c.job == nullptr) {  // status answer between jobs
      if (c.status_sent > 0) {
        status_rtt_us.push_back(static_cast<double>(t - c.status_sent) / 1e3);
        log.add("server.status", 0, -1, c.status_sent, t);
        c.status_sent = 0;
      }
      return;
    }
    Job& job = *c.job;
    job.lines += 1;
    job.bytes += line.size() + 1;
    if (service::is_record_line(line)) {
      if (job.first_record == 0) job.first_record = t;
      job.record_hashes.push_back(fnv1a64(line));
      job.record_ns.push_back(t);
      return;
    }
    const json::Value v = json::parse(line, "daemon response");
    const json::Value* type = v.find("type");
    const std::string kind = type != nullptr ? type->text : "";
    const auto num = [&v](const char* key) {
      const json::Value* f = v.find(key);
      return f != nullptr ? static_cast<std::size_t>(f->number) : 0;
    };
    if (kind == "accepted") {
      job.accepted = true;
      job.ack = t;
      job.id = num("job");
      job.points = num("points");
      job.cached = num("cached");
    } else if (kind == "done") {
      job.done_hits = num("cache_hits");
      if (num("records") != job.points || job.record_hashes.size() != job.points)
        job.error = "done after " + std::to_string(job.record_hashes.size()) +
                    " of " + std::to_string(job.points) + " records";
      finish_job(c, t);
    } else {
      job.error = "terminal line " + line;
      if (!job.accepted) job.points = job.spec.points();
      finish_job(c, t);
    }
  };

  std::int64_t t_last = t_start;
  for (;;) {
    const std::int64_t t = now_ns();
    const bool open = t - t_start < budget;
    bool any_busy = false;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      Client& c = clients[i];
      if (c.job == nullptr && c.status_sent == 0 && open) {
        c.job = next_job(i);
        // Traced runs alternate untraced and traced second-long phases.
        c.job->traced = tracing && ((t - t_start) / 1000000000) % 2 == 1;
        c.job->group = ++group;
        c.job->submit = now_ns();
        if (!send_line(c.fd.get(), service::submit_line("bench" + std::to_string(i), 0, c.job->spec)))
          throw std::runtime_error("daemon connection lost on submit");
      }
      any_busy = any_busy || c.job != nullptr || c.status_sent != 0;
    }
    if (!any_busy) break;
    pollfd fds[kConnections];
    for (int i = 0; i < kConnections; ++i)
      fds[i] = {clients[static_cast<std::size_t>(i)].fd.get(), POLLIN, 0};
    if (::poll(fds, kConnections, 1000) < 0) throw std::runtime_error("poll failed");
    for (int i = 0; i < kConnections; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Client& c = clients[static_cast<std::size_t>(i)];
      char buf[65536];
      const ssize_t n = ::recv(c.fd.get(), buf, sizeof buf, 0);
      if (n <= 0) throw std::runtime_error("daemon closed a client connection");
      const std::int64_t now = now_ns();
      c.in.feed(buf, static_cast<std::size_t>(n));
      std::string line;
      while (c.in.next_line(line)) {
        const bool was_traced = c.job != nullptr && c.job->traced;
        handle_line(c, line, now);
        // After every 8th traced job, one status round trip on the idle
        // connection: often enough for its latency, rarely enough that the
        // verb does not dominate the traced phases.
        if (c.job == nullptr && was_traced && c.status_sent == 0 &&
            now - t_start < budget && ++traced_done % 8 == 0) {
          c.status_sent = now_ns();
          if (!send_line(c.fd.get(), service::status_line()))
            throw std::runtime_error("daemon connection lost on status");
        }
      }
    }
    t_last = now_ns();
  }
  out.wall_s = static_cast<double>(t_last - t_start) / 1e9;
  if (rss_at_mark == 0.0) {
    out.notes.push_back("daemon_overlap: fewer than " + std::to_string(kRssJobs) +
                        " jobs finished; peak_rss_mb read at the end instead");
    rss_at_mark = peak_rss_mb();
  }
  out.peak_rss_mb = rss_at_mark;
  stop_server();
  measure_setup(kSetupReps, out, [&](bool) { setup(false); }, /*rotate=*/false);

  // Cross-path identity and oracles, outside the measured window: every
  // distinct spec's points run once through one-shot run_campaign (in one
  // call; records carry their own point index); each job's record lines,
  // cold or replayed from cache, must be those bytes.
  struct Reference {
    const Job* job;
    std::size_t offset, count;
  };
  std::map<std::string, std::size_t> ref_of;
  std::vector<Reference> refs;
  std::vector<sweep::SweepPoint> all;
  for (const auto& job : history) {
    if (!ref_of.try_emplace(job->key, refs.size()).second) continue;
    std::vector<sweep::SweepPoint> pts = sweep::expand(job->spec);
    refs.push_back({job.get(), all.size(), pts.size()});
    for (sweep::SweepPoint& pt : pts) all.push_back(std::move(pt));
  }
  sweep::RunnerOptions opts;
  opts.threads = cfg.nproc;
  const sweep::CampaignResult res = sweep::run_campaign(all, opts);
  std::vector<std::uint64_t> ref_hash;
  std::int64_t serialize_ns = 0;
  std::uint64_t ref_bytes = 0;
  for (const sweep::SweepRecord& r : res.records) {
    const std::int64_t t0 = now_ns();
    const std::string line = sweep::record_json_line(r);
    serialize_ns += now_ns() - t0;
    ref_bytes += line.size() + 1;
    ref_hash.push_back(fnv1a64(line));
  }
  for (const Reference& ref : refs) {
    const auto first = res.records.begin() + static_cast<std::ptrdiff_t>(ref.offset);
    check_oracles(*scenarios[ref.job->scenario], ref.job->spec,
                  {first, first + static_cast<std::ptrdiff_t>(ref.count)}, out);
  }
  std::vector<sweep::SweepPoint> replay;
  for (const auto& job : history) {
    const Reference& ref = refs[ref_of.at(job->key)];
    const auto first = ref_hash.begin() + static_cast<std::ptrdiff_t>(ref.offset);
    if (!std::equal(job->record_hashes.begin(), job->record_hashes.end(), first,
                    first + static_cast<std::ptrdiff_t>(ref.count)))
      out.fail("job " + std::to_string(job->id) +
               ": daemon record lines differ from one-shot record_json_line");
    if (tracing && job->traced && job->cached < job->points && replay.size() < 96)
      for (std::size_t i = 0; i < ref.count; ++i) replay.push_back(all[ref.offset + i]);
  }
  if (!tracing) return;

  // Phase rates: cold points per second of untraced and of traced phases.
  const double elapsed = static_cast<double>(t_last - t_start) / 1e9;
  double phase_s[2] = {0.0, 0.0};
  for (int k = 0; k < elapsed; ++k)
    phase_s[k % 2] += std::min(1.0, elapsed - k);
  out.untraced_rate = static_cast<double>(phase_points[0]) / std::max(phase_s[0], 1e-9);
  out.traced_rate = static_cast<double>(phase_points[1]) / std::max(phase_s[1], 1e-9);

  ComposedRunner composed(log);
  for (const sweep::SweepPoint& pt : replay) composed.run(pt, ++group, -1);
  export_layers(composed.totals, out.layer);
  std::vector<sweep::SweepPoint> sample(replay.begin(), replay.begin() + std::min<std::size_t>(replay.size(), 4));
  record_identity(sample, out);

  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const auto counter = [&](obs::MetricId id) {
    return static_cast<double>(registry.counter(id));
  };
  const double computed = counter(obs::MetricId::service_points_computed);
  const double decisions = counter(obs::MetricId::service_sched_decisions);
  const double hits = counter(obs::MetricId::service_cache_hits);
  const double misses = counter(obs::MetricId::service_cache_misses);
  out.layer["cluster.fresh_builds"] = static_cast<double>(probe.builds);
  out.layer["cluster.resets"] = computed - static_cast<double>(probe.builds);
  out.layer["runner.calls"] = static_cast<double>(probe.batches);
  const double n_ref = static_cast<double>(std::max<std::size_t>(1, res.records.size()));
  out.layer["record.serialize_us"] = static_cast<double>(serialize_ns) / 1e3 / n_ref;
  out.layer["record.bytes"] = static_cast<double>(ref_bytes) / n_ref;
  out.layer["service.submit_ack_us"] = mean(ack_us);
  out.layer["service.queue_wait_ms"] = mean(queue_wait_ms);
  out.layer["service.decisions"] = decisions;
  out.layer["service.points_per_decision"] = decisions > 0 ? computed / decisions : 0.0;
  out.layer["service.cache_hits"] = hits;
  out.layer["service.cache_misses"] = misses;
  out.layer["service.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  out.layer["service.inflight_shares"] = static_cast<double>(inflight_shares);
  out.layer["service.rejections"] = counter(obs::MetricId::service_jobs_rejected);
  out.layer["server.status_rtt_us"] = mean(status_rtt_us);
  out.layer["server.lines"] = traced_jobs ? static_cast<double>(traced_lines) / static_cast<double>(traced_jobs) : 0.0;
  out.layer["server.bytes"] = traced_jobs ? static_cast<double>(traced_bytes) / static_cast<double>(traced_jobs) : 0.0;
  out.layer["stream.gap_us_p90"] = gaps_us.empty() ? 0.0 : quantile(gaps_us, 0.9);
}

}  // namespace e2e
