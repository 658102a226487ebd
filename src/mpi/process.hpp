// A simulated MPI process: interprets a rank Program against the engine,
// the transport, an optional bandwidth domain, and attached noise sources,
// recording a trace of everything it does.
//
// Processes are pooled by the Cluster: reset() re-arms one for another run
// (new trace binding, new program) while the request vector keeps its
// capacity, so steady-state interpretation allocates nothing per message.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "memory/bandwidth_domain.hpp"
#include "mpi/program.hpp"
#include "mpi/request.hpp"
#include "mpi/trace.hpp"
#include "mpi/transport.hpp"
#include "noise/noise_model.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace iw::mpi {

class Process {
 public:
  Process(int rank, sim::Engine& engine, Transport& transport, Trace& trace);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Non-owning: programs are immutable and must outlive the run (the
  /// Cluster keeps the caller's program vector alive for its duration).
  void set_program(const Program* program);

  /// Attaches a noise source; each compute phase adds one sample from every
  /// attached source. The process owns the generator; the model is shared
  /// (sampling is const) and must outlive the run.
  void add_noise(const noise::NoiseModel* model, Rng rng);

  /// Bandwidth domain used by OpMemWork phases (socket memory interface).
  /// May stay null if the program has no memory-bound phases.
  void set_domain(memory::BandwidthDomain* domain) { domain_ = domain; }

  /// Arms (or with nullptr disarms) the protocol flight recorder: the
  /// process records wait_begin/wait_end around every blocking WaitAll.
  /// Cleared by reset(); harnesses re-arm per run.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Re-arms the process for another run: rebinds the trace, clears the
  /// program, noise sources, domain, and interpreter state. Request storage
  /// keeps its capacity.
  void reset(Trace& trace);

  /// reset() that also rebinds the process to a new rank id — the pooled
  /// fast-forward path reuses one contiguous block of processes for
  /// whatever sparse active set the plan selects.
  void reset(int rank, Trace& trace);

  /// Binds the request window to `capacity` slots of an external slab (the
  /// Cluster carves one slab for all ranks). Without a binding the process
  /// falls back to growable owned storage (standalone/test use). Must be
  /// called only while no requests are open.
  void set_request_storage(Request* base, std::uint32_t capacity);

  /// Called once after wiring; schedules the first instruction at t=0.
  void start();

  /// Transport callback: request `id` finished.
  void on_request_complete(RequestId id);

  /// Transport callback for completions whose finish time is already known
  /// (a matched receive settles `overhead` after its arrival, a rendezvous
  /// sender when its payload is injected): marks the request as settling at
  /// `due` instead of costing a completion event. A blocked WaitAll whose
  /// remaining requests are all timed re-arms a single wake at the latest
  /// due point — one event per wait window, not one per completion.
  void on_request_settles_at(RequestId id, SimTime due);

  /// Plain-pointer completion hook (rank-done notification): no type-erased
  /// state, so wiring it costs nothing on the hot path.
  struct DoneFn {
    void (*fn)(void* ctx, int rank) = nullptr;
    void* ctx = nullptr;
  };

  /// Invoked when the program has fully executed.
  void set_done_handler(DoneFn fn) { on_done_ = fn; }

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool blocked() const { return blocked_; }

 private:
  void resume();                    ///< interpret ops until blocked or timed
  [[nodiscard]] Duration sample_noise();
  /// True when every request is complete or past its timed due point.
  [[nodiscard]] bool requests_settled(SimTime now) const;
  /// If every unfinished request has a known (timed) completion point,
  /// schedules one wake event at the latest of them.
  void schedule_timed_wake();
  void finish_wait();               ///< records the wait segment, resumes

  int rank_;
  sim::Engine& engine_;
  Transport& transport_;
  Trace* trace_;
  const Program* program_ = nullptr;
  memory::BandwidthDomain* domain_ = nullptr;
  obs::Tracer* tracer_ = nullptr;

  struct NoiseSource {
    const noise::NoiseModel* model;
    Rng rng;
  };
  std::vector<NoiseSource> noise_;

  /// Appends to the request window, growing owned fallback storage if no
  /// slab is bound (a bound slab overflowing is a contract error: the
  /// Cluster sizes it from Program::max_window_requests()).
  Request& push_request(Request r);
  void grow_own_requests();

  std::size_t pc_ = 0;
  std::int32_t next_step_ = 0;
  /// Request window: a pointer into the Cluster's shared request slab (SoA
  /// storage, one carve per rank) or into own_requests_ when standalone.
  Request* req_ = nullptr;
  std::uint32_t req_count_ = 0;
  std::uint32_t req_cap_ = 0;
  std::vector<Request> own_requests_;
  /// O(1) WaitAll accounting: requests whose completion is event-driven
  /// and still outstanding, plus the latest timed due point of the window.
  int open_requests_ = 0;
  SimTime latest_due_ = SimTime::zero();
  bool blocked_ = false;
  SimTime wait_begin_;
  bool done_ = false;
  DoneFn on_done_;
};

}  // namespace iw::mpi
