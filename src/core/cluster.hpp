// Cluster: the one-call assembly of engine + topology + fabric + noise +
// processes. This is the main entry point of the idlewave public API:
//
//   core::ClusterConfig config;
//   config.topo = net::TopologySpec::one_rank_per_node(18);
//   core::Cluster cluster(config);
//   mpi::Trace trace = cluster.run(workload::build_ring(spec, delays));
//
// A Cluster instance executes one simulation per arming: the engine's clock
// cannot be rewound mid-run, but reset() re-arms the whole assembly for the
// next run while recycling every pool — the calendar slab, the transport's
// rank queues and rendezvous slab, the process and bandwidth-domain
// objects. Sweeps run thousands of points through one Cluster this way
// (see core::WaveRunner) instead of reconstructing the world per point. A
// reset cluster is byte-for-byte indistinguishable from a fresh one; the
// determinism suite guards that equivalence.
//
// Machine-scale layout: per-rank state lives in struct-of-arrays storage —
// trace rows index into shared slabs (mpi::Trace), every process's request
// window is a slice of one shared request slab sized exactly from the
// programs' Program::max_window_requests(), and Process/BandwidthDomain
// objects come from chunked object pools with stable addresses. The
// memory-per-rank budget this buys is surfaced as peak_bytes_per_rank().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "memory/bandwidth_domain.hpp"
#include "mpi/process.hpp"
#include "mpi/request.hpp"
#include "mpi/trace.hpp"
#include "mpi/transport.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "noise/system_profiles.hpp"
#include "sim/engine.hpp"
#include "support/object_pool.hpp"

namespace iw::obs {
class MetricsRegistry;
class Tracer;
}  // namespace iw::obs

namespace iw::core {

/// Socket-level memory system parameters, enabling OpMemWork phases.
/// Defaults match the paper's Ivy Bridge sockets: bmem ~ 40 GB/s, and a
/// single core drawing ~1/6 of that (the paper observes PPN=1 node
/// performance at "about 1/6 of the saturated case").
struct MemorySystem {
  double socket_bandwidth_Bps = 40e9;
  double core_bandwidth_Bps = 6.7e9;
};

struct ClusterConfig {
  net::TopologySpec topo;
  net::FabricProfile fabric = net::FabricProfile::infiniband_qdr();
  noise::NoiseSpec system_noise = noise::NoiseSpec::none();
  mpi::TransportConfig transport;
  std::optional<MemorySystem> memory;  ///< required for memory-bound work
  std::uint64_t seed = 0x1D1E57A7Eull;  // "idle state"
  /// Optional protocol flight recorder, armed through Engine, Transport and
  /// every Process for the run. Null (the default) costs nothing on the hot
  /// path. Non-owning; must outlive the run.
  obs::Tracer* tracer = nullptr;
  /// Optional metrics registry; when set, run() publishes the engine,
  /// transport, bandwidth-domain and tracer counters into it after the run.
  /// Non-owning; must outlive the run. Not synchronized — concurrent
  /// harnesses (sweep workers) publish through their own collector instead.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One pre-scheduled send posted on behalf of a rank outside the
/// fast-forward active set (see Cluster::run_fast_forward).
struct GhostSend {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::int64_t bytes = 0;
};

/// A batch of GhostSends posted at one simulated time: entries
/// [first, first + count) of the ghost-send array, in program order.
struct GhostPost {
  SimTime when;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs one program per rank to completion and returns the trace.
  /// `injected_noise` adds a second per-phase noise source on every rank —
  /// the paper's fine-grained exponential injection with mean E*Texec.
  /// Callable once per construction/reset().
  mpi::Trace run(const std::vector<mpi::Program>& programs,
                 const noise::NoiseSpec& injected_noise =
                     noise::NoiseSpec::none());

  /// Fast-forward run over an *active subset* of ranks: programs[i] is the
  /// program of rank ranks[i] (ascending); every other rank is silent,
  /// provably outside every delay/boundary light cone. Silent ranks get no
  /// Process, no transport state, no request slice, and no trace
  /// reservation, so setup costs O(active), not O(ranks) — the analytic layer
  /// (core::run_ring_fast_forward) synthesizes their rows afterwards. The
  /// rim of the active set still receives messages from its silent
  /// neighbors; those arrive as the pre-scheduled `ghost_posts`, each
  /// posting a batch of `ghost_sends` through the transport at the ghost
  /// rank's analytically known send time. Both spans must stay alive for
  /// the duration of the call. Requires the fast-forward eligibility
  /// envelope (no noise, no memory domains, no tracer); callable once per
  /// construction/reset().
  mpi::Trace run_fast_forward(std::span<const int> ranks,
                              std::span<const mpi::Program> programs,
                              std::span<const GhostSend> ghost_sends,
                              std::span<const GhostPost> ghost_posts);

  /// Re-arms the cluster for another run under a (possibly different)
  /// configuration. The engine calendar, transport pools, and the process
  /// and domain objects are recycled; behaviour is identical to a freshly
  /// constructed Cluster with the same config. Clears only the state the
  /// previous run used; rank-indexed tables keep their high-water size, and
  /// the topology tables are reused while the tier shape is unchanged.
  void reset(ClusterConfig config);

  [[nodiscard]] const net::Topology& topology() const { return topo_; }
  [[nodiscard]] const mpi::Transport::Stats& transport_stats() const {
    return transport_.stats();
  }
  [[nodiscard]] mpi::Transport::PoolStats transport_pool_stats() const {
    return transport_.pool_stats();
  }
  [[nodiscard]] std::uint64_t events_processed() const {
    return engine_.events_processed();
  }
  [[nodiscard]] std::size_t peak_events_pending() const {
    return engine_.peak_events_pending();
  }

  /// Simulation-state bytes per rank of the last run: trace slabs, request
  /// slab, process/domain pools, the transport's per-rank protocol state,
  /// the rank-indexed wiring tables, and the topology's classification
  /// tables. The scale bench regression-gates this against the fixed
  /// per-rank budget.
  [[nodiscard]] double peak_bytes_per_rank() const {
    return peak_bytes_per_rank_;
  }

  /// End-to-end one-message communication time between two ranks, matching
  /// the protocol the transport would pick — the `Tcomm` for Eq. 2.
  [[nodiscard]] Duration message_time(int src, int dst,
                                      std::int64_t bytes) const;

 private:
  /// Binds pool process `slot` to `rank`: rebinds an existing object or
  /// constructs a new one in place. Stable addresses — never invalidates
  /// previously bound processes.
  mpi::Process& bind_process(std::size_t slot, int rank, mpi::Trace& trace);
  /// Unbinds the previous run's process-table entries and sizes the table
  /// for this run's rank count.
  void clear_process_table();
  /// Sizes the request slab and reserves the trace slabs for `programs`.
  void size_storage(std::span<const mpi::Program> programs,
                    mpi::Trace& trace);
  /// Binds the next pool process to `rank` running `program`: trace row,
  /// request-slab window at `offset` (advanced past it), table entry.
  mpi::Process& bind_rank(int rank, const mpi::Program& program,
                          mpi::Trace& trace, std::size_t& offset);

  void wire_domains();
  void publish_metrics();
  void record_footprint(const mpi::Trace& trace);

  ClusterConfig config_;
  sim::Engine engine_;
  net::Topology topo_;
  mpi::Transport transport_;
  support::ObjectPool<memory::BandwidthDomain> domains_;
  std::size_t domains_in_use_ = 0;
  support::ObjectPool<mpi::Process> processes_;
  std::size_t procs_in_use_ = 0;
  std::vector<mpi::Request> request_slab_;    ///< all ranks' request windows
  std::vector<mpi::Process*> process_table_;  ///< rank-indexed; high-water
  std::vector<memory::BandwidthDomain*> domain_table_;
  double peak_bytes_per_rank_ = 0.0;
  bool ran_ = false;
};

}  // namespace iw::core
