#include "core/cluster.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "support/error.hpp"

namespace iw::core {
namespace {

/// Stream-purpose identifiers for Rng::for_stream.
constexpr std::uint64_t kSystemNoiseStream = 0;
constexpr std::uint64_t kInjectedNoiseStream = 1;

/// Calendar pre-sizing: a ring step wakes every rank and keeps a handful of
/// protocol events per rank in flight, but at machine scale (100k+ ranks)
/// the simultaneously pending population stays far below ranks*8 — the
/// cap keeps the pre-allocation bounded while the calendar still grows on
/// demand if a workload genuinely needs more.
std::size_t calendar_budget(int ranks) {
  return std::min<std::size_t>(static_cast<std::size_t>(ranks) * 8, 262144);
}

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      topo_(config_.topo),
      transport_(engine_, topo_, config_.fabric, config_.transport) {
  engine_.reserve_events(calendar_budget(topo_.ranks()));
}

void Cluster::reset(ClusterConfig config) {
  config_ = std::move(config);
  engine_.reset();
  // Same tier shape (the common sweep case): the rank tables are reused,
  // so reshaping costs nothing below the high-water rank count.
  topo_.reshape(config_.topo);
  // Keep the constructor's calendar pre-sizing when reshaping larger.
  engine_.reserve_events(calendar_budget(topo_.ranks()));
  transport_.reconfigure(config_.fabric, config_.transport);
  ran_ = false;
  // Post-conditions of the recycle: the next run must be indistinguishable
  // from a fresh construction. State leaking through a reset cluster is
  // exactly the bug class that would silently bend sweep physics, so audit
  // builds re-prove it at every sweep point.
  IW_ASSERT(engine_.events_pending() == 0 && engine_.now() == SimTime::zero(),
            "Cluster::reset post-condition: engine not pristine");
  IW_ASSERT(transport_.pool_stats().rdv_in_flight == 0 &&
                transport_.stats().eager_sends == 0 &&
                transport_.stats().rendezvous_sends == 0,
            "Cluster::reset post-condition: transport state leaked");
  IW_AUDIT(transport_.audit());
}

Duration Cluster::message_time(int src, int dst, std::int64_t bytes) const {
  if (transport_.protocol_for(src, dst, bytes) == mpi::WireProtocol::eager)
    return transport_.eager_transfer_time(src, dst, bytes);
  return transport_.rendezvous_transfer_time(src, dst, bytes);
}

mpi::Process& Cluster::bind_process(std::size_t slot, int rank,
                                    mpi::Trace& trace) {
  if (slot < processes_.size()) {
    mpi::Process& proc = processes_[slot];
    proc.reset(rank, trace);
    return proc;
  }
  IW_ASSERT(slot == processes_.size(),
            "process pool slots must be bound in order");
  return processes_.emplace(rank, engine_, transport_, trace);
}

void Cluster::clear_process_table() {
  // Only the entries the previous run bound are non-null; the table keeps
  // its high-water size, so switching np costs O(previous processes).
  for (std::size_t slot = 0; slot < procs_in_use_; ++slot)
    process_table_[static_cast<std::size_t>(processes_[slot].rank())] =
        nullptr;
  procs_in_use_ = 0;
  const auto nranks = static_cast<std::size_t>(topo_.ranks());
  if (process_table_.size() < nranks) process_table_.resize(nranks, nullptr);
}

void Cluster::size_storage(std::span<const mpi::Program> programs,
                           mpi::Trace& trace) {
  // The request slab holds every rank's in-flight request window
  // back-to-back, sized exactly from the programs' deepest Isend/Irecv
  // window, and the trace slabs take every rank's rows. Sizing completes
  // before any binding so neither moves under a bound process.
  std::size_t requests = 0;
  std::size_t segments = 0;
  std::size_t steps = 0;
  for (const mpi::Program& program : programs) {
    requests += program.max_window_requests();
    segments += program.segment_bound();
    steps += static_cast<std::size_t>(program.rounds()) + 1;
  }
  request_slab_.resize(requests);
  trace.reserve(segments, steps);
}

mpi::Process& Cluster::bind_rank(int rank, const mpi::Program& program,
                                 mpi::Trace& trace, std::size_t& offset) {
  mpi::Process& proc = bind_process(procs_in_use_, rank, trace);
  ++procs_in_use_;
  process_table_[static_cast<std::size_t>(rank)] = &proc;
  transport_.bind_rank(rank);
  // Size the trace from the program shape (exact segment bound) so
  // recording never reallocates mid-run.
  trace.reserve_rank(rank, program.segment_bound(),
                     static_cast<std::size_t>(program.rounds()) + 1);
  proc.set_request_storage(
      request_slab_.data() + offset,
      static_cast<std::uint32_t>(program.max_window_requests()));
  offset += program.max_window_requests();
  proc.set_program(&program);
  return proc;
}

void Cluster::wire_domains() {
  // Socket bandwidth domains (only when memory-bound work is configured).
  // They serve both OpMemWork phases and — via the transport — intra-node
  // message copies, which contend with computation for the memory bus.
  // Domain objects are pooled: reset() re-arms existing ones, and slots
  // beyond this run's socket count simply sit idle (the engine reset
  // guarantees they hold no events).
  const std::size_t sockets =
      config_.memory ? static_cast<std::size_t>(topo_.sockets()) : 0;
  for (std::size_t s = 0; s < sockets; ++s) {
    if (s < domains_.size()) {
      domains_[s].reset(config_.memory->socket_bandwidth_Bps,
                        config_.memory->core_bandwidth_Bps);
    } else {
      domains_.emplace(engine_, config_.memory->socket_bandwidth_Bps,
                       config_.memory->core_bandwidth_Bps);
    }
  }
  domains_in_use_ = sockets;
  domain_table_.clear();
  if (sockets > 0) {
    domain_table_.reserve(static_cast<std::size_t>(topo_.ranks()));
    for (int rank = 0; rank < topo_.ranks(); ++rank)
      domain_table_.push_back(
          &domains_[static_cast<std::size_t>(topo_.socket_of(rank))]);
  }
  transport_.set_memory_domains(domain_table_);
}

void Cluster::publish_metrics() {
  if (config_.metrics == nullptr) return;
  config_.metrics->publish(engine_);
  config_.metrics->publish(transport_);
  for (std::size_t s = 0; s < domains_in_use_; ++s)
    config_.metrics->publish(domains_[s]);
  if (config_.tracer != nullptr) config_.metrics->publish(*config_.tracer);
}

void Cluster::record_footprint(const mpi::Trace& trace) {
  // The per-rank budget counts the rank-proportional simulation state: the
  // trace slabs, the shared request slab, the process/domain pools, the
  // transport's per-rank protocol state, and the rank-indexed tables
  // (process and domain wiring, transport binding, topology tiers). The
  // rank-indexed tables keep their high-water size across resets; they are
  // counted at this run's rank count, as a fresh cluster would hold them.
  // (The calendar and the rendezvous slab scale with the *active* working
  // set, not with ranks, and are deliberately excluded.)
  const auto nranks = static_cast<std::size_t>(topo_.ranks());
  std::size_t bytes = trace.bytes_used();
  bytes += request_slab_.capacity() * sizeof(mpi::Request);
  bytes += processes_.bytes_used();
  bytes += domains_.bytes_used();
  bytes += transport_.rank_state_bytes();
  bytes += nranks * sizeof(mpi::Process*);
  bytes += domain_table_.capacity() * sizeof(memory::BandwidthDomain*);
  const int tiers = 2 + (topo_.has_switch_tier() ? 1 : 0) +
                    (topo_.has_island_tier() ? 1 : 0);
  bytes += nranks * static_cast<std::size_t>(tiers) * sizeof(std::int32_t);
  peak_bytes_per_rank_ = static_cast<double>(bytes) /
                         static_cast<double>(std::max(1, topo_.ranks()));
  if (config_.metrics != nullptr)
    config_.metrics->set_max(obs::MetricId::mem_peak_bytes_per_rank,
                             peak_bytes_per_rank_);
}

mpi::Trace Cluster::run(const std::vector<mpi::Program>& programs,
                        const noise::NoiseSpec& injected_noise) {
  IW_REQUIRE(!ran_, "Cluster::run requires a fresh or reset() instance");
  IW_REQUIRE(static_cast<int>(programs.size()) == topo_.ranks(),
             "need exactly one program per rank");
  ran_ = true;

  mpi::Trace trace(topo_.ranks());

  wire_domains();
  size_storage(programs, trace);

  // One model per noise source, shared by every rank: sampling is const,
  // and each rank draws from its own stream. Both outlive engine_.run().
  const auto build = [](const noise::NoiseSpec& spec) {
    return spec.kind == noise::NoiseSpec::Kind::none ? nullptr : spec.build();
  };
  const std::unique_ptr<noise::NoiseModel> system_model =
      build(config_.system_noise);
  const std::unique_ptr<noise::NoiseModel> injected_model =
      build(injected_noise);

  clear_process_table();
  std::size_t offset = 0;
  for (int rank = 0; rank < topo_.ranks(); ++rank) {
    mpi::Process& proc = bind_rank(
        rank, programs[static_cast<std::size_t>(rank)], trace, offset);
    if (system_model) {
      proc.add_noise(system_model.get(),
                     Rng::for_stream(config_.seed,
                                     static_cast<std::uint64_t>(rank),
                                     kSystemNoiseStream));
    }
    if (injected_model) {
      proc.add_noise(injected_model.get(),
                     Rng::for_stream(config_.seed,
                                     static_cast<std::uint64_t>(rank),
                                     kInjectedNoiseStream));
    }
    if (!domain_table_.empty())
      proc.set_domain(domain_table_[static_cast<std::size_t>(rank)]);
  }

  // Rank-indexed completion wiring: the transport calls straight into
  // Process::on_request_complete, no type-erased hop.
  transport_.set_processes(process_table_.data());

  // Flight-recorder wiring: one pointer per layer, null in untraced runs.
  engine_.set_tracer(config_.tracer);
  transport_.set_tracer(config_.tracer);
  if (config_.tracer != nullptr)
    for (std::size_t r = 0; r < procs_in_use_; ++r)
      processes_[r].set_tracer(config_.tracer);

  for (std::size_t r = 0; r < procs_in_use_; ++r) processes_[r].start();
  engine_.run();

  for (std::size_t r = 0; r < procs_in_use_; ++r)
    IW_CHECK(processes_[r].done(),
             "deadlock: a process never finished its program");

  publish_metrics();
  record_footprint(trace);

  return trace;
}

mpi::Trace Cluster::run_fast_forward(
    std::span<const int> ranks, std::span<const mpi::Program> programs,
    std::span<const GhostSend> ghost_sends,
    std::span<const GhostPost> ghost_posts) {
  IW_REQUIRE(!ran_, "Cluster::run requires a fresh or reset() instance");
  IW_REQUIRE(ranks.size() == programs.size(),
             "need exactly one program per active rank");
  // The fast-forward envelope (core::plan_fast_forward) excludes every
  // feature that could couple a silent rank back into the simulation;
  // re-prove the structural parts here.
  IW_REQUIRE(!config_.memory,
             "fast-forward runs cannot use memory domains");
  IW_REQUIRE(config_.system_noise.kind == noise::NoiseSpec::Kind::none,
             "fast-forward runs cannot carry system noise");
  IW_REQUIRE(config_.tracer == nullptr,
             "fast-forward runs cannot be flight-recorded");
  ran_ = true;

  mpi::Trace trace(topo_.ranks());

  domains_in_use_ = 0;
  domain_table_.clear();
  transport_.set_memory_domains(domain_table_);

  size_storage(programs, trace);

  // Silent ranks keep a null process-table entry. That is safe because a
  // silent rank never posts a receive: arrivals from ghosts into silent
  // destinations park in the transport's unexpected queues and are never
  // completed, so procs_[silent] is never dereferenced.
  clear_process_table();
  std::size_t offset = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    IW_REQUIRE(ranks[i] >= 0 && ranks[i] < topo_.ranks() &&
                   (i == 0 || ranks[i - 1] < ranks[i]),
               "active ranks must be ascending and in range");
    (void)bind_rank(ranks[i], programs[i], trace, offset);
  }
  transport_.set_processes(process_table_.data());
  engine_.set_tracer(nullptr);
  transport_.set_tracer(nullptr);

  // Pre-schedule the ghost traffic: each post fires at the silent sender's
  // analytically known compute-end time and injects its batch in program
  // order, reproducing the NIC serialization a simulated sender would have.
  for (const auto& post : ghost_posts) {
    IW_REQUIRE(static_cast<std::size_t>(post.first) + post.count <=
                   ghost_sends.size(),
               "ghost post window out of range");
    engine_.at(post.when, [this, ghost_sends, post] {
      for (std::uint32_t i = 0; i < post.count; ++i) {
        const GhostSend& g = ghost_sends[post.first + i];
        transport_.post_ghost_send(g.src, g.dst, g.tag, g.bytes);
      }
    });
  }

  for (std::size_t r = 0; r < procs_in_use_; ++r) processes_[r].start();
  engine_.run();

  for (std::size_t r = 0; r < procs_in_use_; ++r)
    IW_CHECK(processes_[r].done(),
             "deadlock: a process never finished its program");

  publish_metrics();
  record_footprint(trace);

  return trace;
}

}  // namespace iw::core
