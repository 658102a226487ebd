// idlewaved: the persistent campaign daemon.
//
//   ./build/examples/idlewaved --socket=/tmp/idlewave.sock --threads=4
//
// Accepts campaign submissions over a Unix-domain socket (line-delimited
// JSON: submit | status | cancel | results | shutdown — see
// src/service/protocol.hpp), computes queued points one at a time,
// fair-share across clients, on long-lived worker threads (each recycling
// one simulated cluster from point to point), streams SweepRecord JSONL back
// incrementally, and never recomputes a point two campaigns share: completed
// points live in a content-addressed cache keyed by the canonical hash of
// (expanded point, seed, record-schema version). A cache hit replays the
// exact bytes a fresh run would produce.
//
// Flags:
//   --socket=PATH        socket path (required; one daemon per path)
//   --threads=N          long-lived worker threads (default 1)
//   --max-points=N       admission: max queued points per client
//   --max-jobs=N         admission: max open jobs per client
//   --metrics-json=PATH  write a unified metrics snapshot at shutdown
//
// The daemon runs in the foreground and logs to stdout; stop it with the
// protocol's "shutdown" verb (idlewave_client --shutdown) or SIGINT/SIGTERM.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "service/server.hpp"
#include "support/cli.hpp"

namespace {

using namespace iw;

service::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

int daemon_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.allow_only(
      {"socket", "threads", "max-points", "max-jobs", "metrics-json"});
  const std::string socket_path = cli.get_or("socket", std::string{});
  if (socket_path.empty())
    throw std::runtime_error("--socket=PATH is required");

  obs::MetricsRegistry metrics;
  service::ServerOptions options;
  options.socket_path = socket_path;
  options.service.threads =
      static_cast<int>(cli.get_or("threads", std::int64_t{1}));
  options.service.limits.max_points_per_client = static_cast<std::size_t>(
      cli.get_or("max-points", static_cast<std::int64_t>(
                                   service::QueueLimits{}.max_points_per_client)));
  options.service.limits.max_jobs_per_client = static_cast<std::size_t>(
      cli.get_or("max-jobs", static_cast<std::int64_t>(
                                 service::QueueLimits{}.max_jobs_per_client)));
  options.service.metrics = &metrics;

  service::Server server(options);
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  server.start();
  const int workers = std::max(1, options.service.threads);
  std::cout << "idlewaved: listening on " << socket_path << " (" << workers
            << " worker thread" << (workers == 1 ? "" : "s")
            << ", one point per decision)" << std::endl;
  server.wait();
  g_server = nullptr;
  std::cout << "idlewaved: shut down\n" << server.service().status_json()
            << '\n';

  if (const auto metrics_path = cli.get("metrics-json")) {
    std::ofstream out(*metrics_path);
    if (!out)
      throw std::runtime_error("cannot open metrics output: " + *metrics_path);
    out << metrics.snapshot().to_json() << '\n';
    std::cout << "wrote metrics: " << *metrics_path << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return daemon_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "idlewaved: error: " << e.what() << '\n';
    return 1;
  }
}
