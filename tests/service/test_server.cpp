// Socket-level tests for idlewaved's front-end: a real Server on a real
// AF_UNIX socket, driven by raw protocol lines. Covers the full
// submit/stream/status/cancel/shutdown surface plus two faults: a client
// that vanishes mid-stream has its jobs abandoned and its queue share
// reclaimed, while completed physics stays in the shared cache; and a
// client that streams an endless request line is cut off without
// disturbing anyone else. The server runs two long-lived workers, and
// overlapping jobs from two connections must come back byte-identical to
// one-shot campaigns.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/framing.hpp"
#include "support/json.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "sweep/spec.hpp"

namespace iw::service {
namespace {

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

/// Client-side line reader with a receive timeout, so a daemon bug fails
/// the test instead of hanging it.
class TimedReader {
 public:
  explicit TimedReader(int fd) : fd_(fd) {
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  bool next(std::string& line) {
    while (!buf_.next_line(line)) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buf_.feed(chunk, static_cast<std::size_t>(n));
    }
    return true;
  }

 private:
  int fd_;
  LineBuffer buf_;
};

/// One-shot reference: run_campaign + JsonlSink, as sweep_runner does.
std::string one_shot_jsonl(const sweep::SweepSpec& spec) {
  const std::string path = ::testing::TempDir() + "iw_server_oneshot_" +
                           std::to_string(::getpid()) + ".jsonl";
  {
    sweep::JsonlSink sink(path);
    sweep::RunnerOptions options;
    options.sinks.push_back(&sink);
    const sweep::CampaignResult result = run_campaign(spec, options);
    EXPECT_EQ(result.records.size(), result.total_points);
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Threads the service's point hook ran on. A joined thread's id can be
/// reused by the next thread, so new threads are also counted through a
/// thread_local: it starts at zero on every thread, whatever its id.
struct ThreadProbe {
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::size_t thread_starts = 0;
  std::size_t points = 0;

  static void hook(void* ctx, std::uint64_t, std::size_t) {
    thread_local std::size_t points_on_thread = 0;
    auto* self = static_cast<ThreadProbe*>(ctx);
    std::lock_guard<std::mutex> lk(self->mu);
    self->threads.insert(std::this_thread::get_id());
    if (points_on_thread++ == 0) self->thread_starts += 1;
    self->points += 1;
  }
};

/// Polls `pred` until it holds or ~5 s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.socket_path = ::testing::TempDir() + "iw_test_" +
                          std::to_string(::getpid()) + ".sock";
    options.service.threads = 2;
    options.service.on_batch_point = &ThreadProbe::hook;
    options.service.on_batch_ctx = &probe_;
    server_ = std::make_unique<Server>(std::move(options));
    server_->start();
  }

  void TearDown() override {
    server_->stop();
    server_->wait();
  }

  [[nodiscard]] ScopedFd connect() const {
    return unix_connect(server_->socket_path());
  }

  ThreadProbe probe_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerFixture, SubmitStreamsRecordsThenDone) {
  ScopedFd fd = connect();
  ASSERT_TRUE(
      send_line(fd.get(), submit_line("alice", 0, quick_spec({6.0, 12.0}))));

  TimedReader reader(fd.get());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  const json::Value accepted = json::parse(line);
  ASSERT_EQ(accepted.find("type")->text, "accepted");
  EXPECT_EQ(accepted.find("points")->number, 2.0);

  std::size_t records = 0;
  while (reader.next(line)) {
    if (is_record_line(line)) {
      records += 1;
      continue;
    }
    const json::Value done = json::parse(line);
    EXPECT_EQ(done.find("type")->text, "done");
    EXPECT_EQ(done.find("records")->number, 2.0);
    break;
  }
  EXPECT_EQ(records, 2u);
}

TEST_F(ServerFixture, StatusAndMalformedLinesAnswerInline) {
  ScopedFd fd = connect();
  TimedReader reader(fd.get());
  std::string line;

  ASSERT_TRUE(send_line(fd.get(), status_line()));
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(json::parse(line).find("type")->text, "status");

  // A malformed request gets a structured error, not a dropped connection.
  ASSERT_TRUE(send_line(fd.get(), "this is not json"));
  ASSERT_TRUE(reader.next(line));
  const json::Value err = json::parse(line);
  EXPECT_EQ(err.find("type")->text, "error");
  EXPECT_EQ(err.find("code")->text, "bad-request");

  // The connection survives: status still answers.
  ASSERT_TRUE(send_line(fd.get(), status_line()));
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(json::parse(line).find("type")->text, "status");
}

TEST_F(ServerFixture, DisconnectMidStreamReclaimsJobAndSlot) {
  std::uint64_t job = 0;
  {
    ScopedFd fd = connect();
    ASSERT_TRUE(send_line(
        fd.get(),
        submit_line("ghost", 0, quick_spec({3.0, 6.0, 9.0, 12.0, 15.0}))));
    TimedReader reader(fd.get());
    std::string line;
    ASSERT_TRUE(reader.next(line));
    const json::Value accepted = json::parse(line);
    ASSERT_EQ(accepted.find("type")->text, "accepted");
    job = static_cast<std::uint64_t>(accepted.find("job")->number);
    // fd closes here: the client vanishes while the campaign runs.
  }

  // The daemon notices the hangup, abandons the job, and drains the queue.
  ASSERT_TRUE(eventually([&] { return server_->service().finished(job); }));
  const json::Value status = json::parse(server_->service().status_json());
  EXPECT_EQ(status.find("queue_depth")->number, 0.0);
  EXPECT_EQ(status.find("jobs_open")->number, 0.0);

  // A fresh client can immediately run the same campaign; whatever the
  // abandoned run completed is served from the cache.
  ScopedFd fd = connect();
  ASSERT_TRUE(send_line(
      fd.get(),
      submit_line("ghost", 0, quick_spec({3.0, 6.0, 9.0, 12.0, 15.0}))));
  TimedReader reader(fd.get());
  std::string line;
  std::size_t records = 0;
  bool done = false;
  while (reader.next(line)) {
    if (is_record_line(line)) {
      records += 1;
      continue;
    }
    const json::Value msg = json::parse(line);
    if (msg.find("type")->text == "accepted") continue;
    EXPECT_EQ(msg.find("type")->text, "done");
    done = true;
    break;
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(records, 5u);
}

TEST_F(ServerFixture, CancelFromAnotherConnection) {
  ScopedFd submitter = connect();
  // A slow campaign: enough points that the cancel races nothing.
  ASSERT_TRUE(send_line(
      submitter.get(),
      submit_line("slow", 0,
                  quick_spec({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}))));
  TimedReader reader(submitter.get());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  const json::Value accepted = json::parse(line);
  ASSERT_EQ(accepted.find("type")->text, "accepted");
  const auto job = static_cast<std::uint64_t>(accepted.find("job")->number);

  ScopedFd controller = connect();
  ASSERT_TRUE(send_line(controller.get(), cancel_line(job)));
  TimedReader creader(controller.get());
  ASSERT_TRUE(creader.next(line));
  const json::Value ack = json::parse(line);
  EXPECT_EQ(ack.find("type")->text, "cancel-ack");

  // The submitter's stream ends with a terminal line — "cancelled" if any
  // work remained, "done" if the campaign beat the cancel.
  std::string type;
  while (reader.next(line)) {
    if (is_record_line(line)) continue;
    type = json::parse(line).find("type")->text;
    break;
  }
  EXPECT_TRUE(type == "cancelled" || type == "done") << type;
}

TEST_F(ServerFixture, ShutdownVerbStopsTheServer) {
  ScopedFd fd = connect();
  ASSERT_TRUE(send_line(fd.get(), shutdown_line()));
  TimedReader reader(fd.get());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(json::parse(line).find("type")->text, "bye");
  server_->wait();  // returns: the verb shut every thread down
}

// ---------------------------------------------------------------------------
// Persistent workers. Three jobs from two connections overlap in time and
// in points (J2 extends J1's delay axis, so their six common points are
// computed once and shared). Every computed point must come from one of the
// two long-lived worker threads, and each job's records must be the exact
// bytes of a one-shot campaign. Two jobs share connection A; their records
// interleave on the wire and are told apart by their delay_ms value.
// ---------------------------------------------------------------------------

TEST_F(ServerFixture, PersistentWorkersServeOverlappingJobsByteIdentically) {
  const sweep::SweepSpec j1 = quick_spec({2.0, 4.0, 6.0, 8.0, 10.0, 12.0});
  const sweep::SweepSpec j2 =
      quick_spec({2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0});
  const sweep::SweepSpec j3 = quick_spec({1.0, 3.0, 5.0, 7.0, 9.0});

  ScopedFd a = connect();
  ScopedFd b = connect();
  ASSERT_TRUE(send_line(a.get(), submit_line("alice", 0, j1)));
  ASSERT_TRUE(send_line(b.get(), submit_line("bob", 0, j2)));
  ASSERT_TRUE(send_line(a.get(), submit_line("alice", 0, j3)));

  // Reads `fd` until `jobs` terminal lines arrived; record lines are
  // appended raw under their delay's parity (J3's delays are the odd ones).
  const auto collect = [](int fd, std::size_t jobs,
                          std::map<int, std::string>& out) {
    TimedReader reader(fd);
    std::string line;
    std::size_t terminals = 0;
    while (terminals < jobs && reader.next(line)) {
      const json::Value v = json::parse(line);
      if (is_record_line(line)) {
        std::string& job = out[static_cast<int>(v.find("delay_ms")->number) % 2];
        job += line;
        job += '\n';
        continue;
      }
      const std::string type = v.find("type")->text;
      if (type == "accepted") continue;
      EXPECT_EQ(type, "done") << line;
      terminals += 1;
    }
    EXPECT_EQ(terminals, jobs);
  };
  std::map<int, std::string> from_a;
  std::map<int, std::string> from_b;
  collect(a.get(), 2, from_a);
  collect(b.get(), 1, from_b);

  EXPECT_EQ(from_a[0], one_shot_jsonl(j1));
  EXPECT_EQ(from_a[1], one_shot_jsonl(j3));
  EXPECT_EQ(from_b[0], one_shot_jsonl(j2));
  EXPECT_EQ(from_b.count(1), 0u);

  const json::Value status = json::parse(server_->service().status_json());
  EXPECT_EQ(status.find("points_computed")->number, 13.0)
      << "J1 and J2 share six points: 8 + 5 distinct points in all";
  std::lock_guard<std::mutex> lk(probe_.mu);
  EXPECT_EQ(probe_.points, 13u);
  EXPECT_GE(probe_.threads.size(), 1u);
  EXPECT_LE(probe_.threads.size(), 2u)
      << "points must run on the two long-lived workers, not fresh threads";
  EXPECT_LE(probe_.thread_starts, 2u);
}

// ---------------------------------------------------------------------------
// Bounded request lines. A client that streams more than kMaxLine bytes
// without a newline gets one structured bad-request line and is
// disconnected; a second client's job, submitted before and read after the
// flood, still completes byte-identically.
// ---------------------------------------------------------------------------

TEST_F(ServerFixture, OverlongRequestLineIsRejectedAndClosed) {
  // The cap sits far above every real request.
  for (const sweep::Scenario& s : sweep::scenario_catalog())
    EXPECT_LT(submit_line(s.name, 0, s.spec).size(), LineBuffer::kMaxLine / 64)
        << s.name;

  const sweep::SweepSpec spec = quick_spec({6.0, 12.0, 18.0});
  ScopedFd good = connect();
  ASSERT_TRUE(send_line(good.get(), submit_line("good", 0, spec)));

  ScopedFd flood = connect();
  const std::string chunk(64 * 1024, 'x');
  // The server closes the connection once the line passes the cap, so a
  // send may fail part-way; that is the expected outcome, not an error.
  for (std::size_t sent = 0; sent <= LineBuffer::kMaxLine + chunk.size();
       sent += chunk.size())
    if (!send_all(flood.get(), chunk.data(), chunk.size())) break;

  TimedReader flood_reader(flood.get());
  std::string line;
  ASSERT_TRUE(flood_reader.next(line));
  const json::Value err = json::parse(line);
  EXPECT_EQ(err.find("type")->text, "error");
  EXPECT_EQ(err.find("code")->text, "bad-request");
  EXPECT_FALSE(flood_reader.next(line)) << "the connection must be closed";

  TimedReader reader(good.get());
  std::string records;
  std::string type;
  while (reader.next(line)) {
    if (is_record_line(line)) {
      records += line;
      records += '\n';
      continue;
    }
    type = json::parse(line).find("type")->text;
    if (type != "accepted") break;
  }
  EXPECT_EQ(type, "done");
  EXPECT_EQ(records, one_shot_jsonl(spec));
}

}  // namespace
}  // namespace iw::service
