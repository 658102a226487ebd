// idlewaved's socket front-end.
//
// One poll()-driven IO thread owns the AF_UNIX listener, every client
// connection, and a self-pipe the CampaignService tickles (via its
// on_output hook) whenever a job gained ready lines. The first submission
// starts max(1, threads) long-lived worker threads, each running the
// service's run_loop(): one claimed point at a time on its own WaveRunner
// (a daemon that is never sent work never pays for them). All campaign logic
// lives in the service — this class only frames lines, checks job
// ownership per connection, and relays the service's ready output verbatim
// (which is what keeps the stream byte-identical to an in-process drain()).
//
// A connection that drops mid-stream has each of its jobs abandoned:
// queue slots free at once, points already claimed finish and land in the
// shared cache. A request line longer than LineBuffer::kMaxLine gets a
// "bad-request" error and the connection is closed, so no client can grow
// the daemon's memory without bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"
#include "support/framing.hpp"

namespace iw::service {

struct ServerOptions {
  std::string socket_path;
  ServiceOptions service;  ///< on_output/on_output_ctx are taken by the server
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the IO thread. Throws on bind/listen
  /// failure.
  void start();

  /// Requests shutdown (idempotent; also triggered by the protocol's
  /// "shutdown" verb). Workers finish the point they are computing.
  void stop();

  /// Blocks until the server has shut down and every thread joined.
  void wait();

  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }
  [[nodiscard]] CampaignService& service() { return service_; }

 private:
  struct Conn {
    ScopedFd fd;
    LineBuffer in;
    std::vector<std::uint64_t> jobs;       ///< submitted on this connection
    std::vector<std::uint64_t> streaming;  ///< jobs with lines still coming
    bool dead = false;
  };

  void io_loop();
  /// IO thread, first submission: spawns the worker threads. If a spawn
  /// throws, the ones already started are stopped and joined first.
  void start_workers();
  void handle_line(Conn& conn, const std::string& line);
  void drain_streams(Conn& conn);
  void disconnect(Conn& conn);
  static void wake_cb(void* ctx);
  /// Wires the service's on_output hook to this server's wakeup pipe
  /// (member-init helper: options_ is declared — and thus built — first).
  static ServiceOptions patch_options(ServerOptions& options, Server* self);

  ServerOptions options_;
  CampaignService service_;
  ScopedFd listen_fd_;
  ScopedFd wake_read_;
  ScopedFd wake_write_;
  std::vector<Conn> conns_;
  std::thread io_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace iw::service
