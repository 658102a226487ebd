#include "core/fast_forward.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "workload/ring.hpp"

namespace iw::core {
namespace {

/// The topology's translational period, computed from the spec (same value
/// as Topology::pattern_period(), without building the rank tables).
int pattern_period_of(const net::TopologySpec& spec) {
  const int per_socket = spec.ranks_per_socket > 0 ? spec.ranks_per_socket
                                                   : spec.cores_per_socket;
  int period = per_socket * spec.sockets_per_node;
  if (spec.nodes_per_switch > 0) {
    period *= spec.nodes_per_switch;
    if (spec.switches_per_island > 0) period *= spec.switches_per_island;
  }
  return period;
}

/// Appends the cone [center - radius, center + radius] as intervals:
/// clipped to the chain on an open ring, split at rank 0 on a periodic one.
void add_cone(std::vector<RankInterval>& cones, int center, int radius,
              int np, workload::Boundary boundary) {
  std::int64_t lo = static_cast<std::int64_t>(center) - radius;
  std::int64_t hi = static_cast<std::int64_t>(center) + radius + 1;
  if (hi - lo >= np) {
    cones.push_back({0, np});
    return;
  }
  if (boundary == workload::Boundary::periodic) {
    const std::int64_t shift = lo - (((lo % np) + np) % np);
    lo -= shift;  // lo in [0, np), hi in (lo, lo + np)
    hi -= shift;
    if (hi > np) {
      cones.push_back({static_cast<int>(lo), np});
      cones.push_back({0, static_cast<int>(hi - np)});
    } else {
      cones.push_back({static_cast<int>(lo), static_cast<int>(hi)});
    }
    return;
  }
  lo = std::max<std::int64_t>(lo, 0);
  hi = std::min<std::int64_t>(hi, np);
  if (lo < hi) cones.push_back({static_cast<int>(lo), static_cast<int>(hi)});
}

/// Sorts and merges overlapping or adjacent intervals.
std::vector<RankInterval> merge_intervals(std::vector<RankInterval> in) {
  std::sort(in.begin(), in.end(),
            [](const RankInterval& a, const RankInterval& b) {
              return a.begin < b.begin;
            });
  std::vector<RankInterval> out;
  for (const RankInterval& iv : in) {
    if (!out.empty() && iv.begin <= out.back().end)
      out.back().end = std::max(out.back().end, iv.end);
    else
      out.push_back(iv);
  }
  return out;
}

/// Membership in a sorted, disjoint interval set: O(log intervals).
bool contains(const std::vector<RankInterval>& set, int rank) {
  const auto it = std::upper_bound(
      set.begin(), set.end(), rank,
      [](int r, const RankInterval& iv) { return r < iv.begin; });
  return it != set.begin() && rank < std::prev(it)->end;
}

/// The complement of a sorted, disjoint interval set within [0, np).
std::vector<RankInterval> complement(const std::vector<RankInterval>& set,
                                     int np) {
  std::vector<RankInterval> out;
  int next = 0;
  for (const RankInterval& iv : set) {
    if (next < iv.begin) out.push_back({next, iv.begin});
    next = iv.end;
  }
  if (next < np) out.push_back({next, np});
  return out;
}

/// The silent ranks feeding the active set, ascending: candidates are the
/// ranks within d hops of an interval edge (a send travels at most d hops),
/// kept when one of their send peers is active.
std::vector<int> ghost_rim(const workload::RingSpec& ring,
                           const std::vector<RankInterval>& active) {
  const int np = ring.ranks;
  std::vector<int> rim;
  const auto consider = [&](std::int64_t r) {
    if (ring.boundary == workload::Boundary::periodic)
      r = ((r % np) + np) % np;
    else if (r < 0 || r >= np)
      return;
    if (!contains(active, static_cast<int>(r)))
      rim.push_back(static_cast<int>(r));
  };
  for (const RankInterval& iv : active) {
    for (int k = 1; k <= ring.distance; ++k) {
      consider(static_cast<std::int64_t>(iv.begin) - k);
      consider(static_cast<std::int64_t>(iv.end) - 1 + k);
    }
  }
  std::sort(rim.begin(), rim.end());
  rim.erase(std::unique(rim.begin(), rim.end()), rim.end());
  std::erase_if(rim, [&](int r) {
    const auto peers = workload::send_peers(ring, r);
    return std::none_of(peers.begin(), peers.end(),
                        [&](int p) { return contains(active, p); });
  });
  return rim;
}

/// Content equality of two traces (slab layout is irrelevant): the
/// byte-identity contract of the fast-forward path.
[[maybe_unused]] bool traces_equal(const mpi::Trace& a, const mpi::Trace& b) {
  if (a.ranks() != b.ranks()) return false;
  for (int r = 0; r < a.ranks(); ++r) {
    if (a.finish(r) != b.finish(r)) return false;
    const auto sa = a.segments(r);
    const auto sb = b.segments(r);
    if (sa.size() != sb.size()) return false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].kind != sb[i].kind || sa[i].begin != sb[i].begin ||
          sa[i].end != sb[i].end || sa[i].step != sb[i].step ||
          sa[i].noise != sb[i].noise)
        return false;
    }
    const auto ma = a.step_begin(r);
    const auto mb = b.step_begin(r);
    if (!std::equal(ma.begin(), ma.end(), mb.begin(), mb.end())) return false;
  }
  return true;
}

/// Audit-build cross-check: at small np, re-run the experiment through the
/// full event simulation and require the synthesized trace to match it
/// exactly. The threshold keeps audit sweeps affordable; the scale bench
/// exercises the identity explicitly at its smallest point.
[[maybe_unused]] void audit_cross_check(const WaveExperiment& exp,
                                        const mpi::Trace& ffwd) {
  if (exp.ring.ranks > 2048) return;
  ClusterConfig config = exp.cluster;
  config.metrics = nullptr;  // the real run already published
  config.tracer = nullptr;
  Cluster full(config);
  const mpi::Trace reference =
      full.run(workload::build_ring(exp.ring, exp.delays), exp.injected_noise);
  IW_CHECK(traces_equal(ffwd, reference),
           "fast-forward trace diverges from the full simulation");
}

}  // namespace

FfwdMode ffwd_mode_from_string(std::string_view s) {
  if (s == "off") return FfwdMode::off;
  if (s == "auto") return FfwdMode::auto_;
  if (s == "force") return FfwdMode::force;
  IW_REQUIRE(false, "unknown ffwd mode '" + std::string(s) +
                        "' (expected off|auto|force)");
  return FfwdMode::off;  // unreachable
}

FastForwardPlan plan_fast_forward(const WaveExperiment& exp) {
  FastForwardPlan plan;
  const workload::RingSpec& ring = exp.ring;
  const int np = ring.ranks;
  plan.period = pattern_period_of(exp.cluster.topo);
  const int neighborhood = 2 * ring.distance + 1;
  plan.np_ref =
      plan.period *
      std::max(2, (neighborhood + plan.period - 1) / plan.period);

  const auto& tc = exp.cluster.transport;
  std::string reason;
  if (exp.grid) {
    reason = "grid workloads are not eligible";
  } else if (exp.cluster.topo.ranks != np) {
    reason = "topology/ring rank mismatch";
  } else if (exp.cluster.system_noise.kind != noise::NoiseSpec::Kind::none) {
    reason = "system noise perturbs every rank";
  } else if (exp.injected_noise.kind != noise::NoiseSpec::Kind::none) {
    reason = "injected noise perturbs every rank";
  } else if (exp.cluster.memory) {
    reason = "memory domains couple ranks through the bus";
  } else if (exp.cluster.tracer != nullptr) {
    reason = "flight recording needs every event";
  } else if (tc.nic.injection_depth != 0) {
    reason = "finite NIC injection depth couples senders to drain order";
  } else if (tc.eager.credit_window != 0) {
    reason = "eager credit window couples senders to receivers";
  } else if (tc.eager.buffer_capacity !=
             std::numeric_limits<std::int64_t>::max()) {
    reason = "finite eager buffers can demote sends";
  } else if (tc.protocol_by_size(ring.msg_bytes,
                                 exp.cluster.fabric.eager_limit_bytes) !=
             mpi::WireProtocol::eager) {
    reason = "rendezvous messages couple senders to receivers";
  } else if (ring.boundary == workload::Boundary::periodic &&
             np % plan.period != 0) {
    reason = "periodic ring size is not a multiple of the topology period";
  } else if (plan.np_ref > np) {
    reason = "ring smaller than the reference pattern";
  }
  if (!reason.empty()) {
    plan.reason = std::move(reason);
    return plan;
  }

  plan.eligible = true;
  const int radius = ring.distance * (ring.steps + 2);
  std::vector<RankInterval> cones;
  for (const auto& d : exp.delays)
    add_cone(cones, d.rank, radius, np, ring.boundary);
  if (ring.boundary == workload::Boundary::open) {
    add_cone(cones, 0, radius, np, ring.boundary);
    add_cone(cones, np - 1, radius, np, ring.boundary);
  }
  plan.active = merge_intervals(std::move(cones));
  for (const RankInterval& iv : plan.active)
    plan.active_count += static_cast<std::size_t>(iv.size());
  return plan;
}

FastForwardResult run_ring_fast_forward(Cluster& cluster,
                                        const WaveExperiment& exp,
                                        const FastForwardPlan& plan) {
  IW_REQUIRE(plan.eligible, "fast-forward plan is not eligible");
  const workload::RingSpec& ring = exp.ring;
  const int np = ring.ranks;
  const int period = plan.period;

  // Reference ring: periodic, undisturbed, same per-step physics. Its
  // ranks 0..P-1 are one full topology period, so every silent rank r of
  // the real machine has the timeline of reference rank r mod P.
  workload::RingSpec ref_ring = ring;
  ref_ring.ranks = plan.np_ref;
  ref_ring.boundary = workload::Boundary::periodic;
  ClusterConfig ref_config;
  ref_config.topo = exp.cluster.topo;
  ref_config.topo.ranks = plan.np_ref;
  ref_config.fabric = exp.cluster.fabric;
  ref_config.transport = exp.cluster.transport;
  ref_config.seed = exp.cluster.seed;
  Cluster ref_cluster(ref_config);
  const mpi::Trace ref_trace = ref_cluster.run(workload::build_ring(ref_ring));

  // Per-residue send-post times: with no noise and no delays each step has
  // exactly one compute segment, and sends are posted the instant it ends.
  std::vector<std::vector<SimTime>> send_times(
      static_cast<std::size_t>(period));
  for (int q = 0; q < period; ++q) {
    auto& times = send_times[static_cast<std::size_t>(q)];
    times.reserve(static_cast<std::size_t>(ring.steps));
    for (const auto& seg : ref_trace.segments(q))
      if (seg.kind == mpi::SegKind::compute) times.push_back(seg.end);
    IW_CHECK(static_cast<int>(times.size()) == ring.steps,
             "reference ring must record one compute segment per step");
  }

  // Programs for the active set only: the silent majority never gets one.
  std::vector<int> active_ranks;
  std::vector<mpi::Program> programs;
  active_ranks.reserve(plan.active_count);
  programs.reserve(plan.active_count);
  for (const RankInterval& iv : plan.active) {
    for (int r = iv.begin; r < iv.end; ++r) {
      active_ranks.push_back(r);
      programs.push_back(workload::build_ring_rank(ring, r, exp.delays));
    }
  }

  // Ghost schedule: every silent rank feeding the active rim replays *all*
  // of its sends in program order at its reference send times — partial
  // replay would shift the NIC serialization of the sends that matter.
  // Emission is in ascending rank order: equal-time posts fire in that
  // order, as the senders would in a full simulation.
  std::vector<GhostSend> ghost_sends;
  std::vector<GhostPost> ghost_posts;
  for (const int r : ghost_rim(ring, plan.active)) {
    const auto peers = workload::send_peers(ring, r);
    const auto& times = send_times[static_cast<std::size_t>(r % period)];
    for (int step = 0; step < ring.steps; ++step) {
      GhostPost post;
      post.when = times[static_cast<std::size_t>(step)];
      post.first = static_cast<std::uint32_t>(ghost_sends.size());
      post.count = static_cast<std::uint32_t>(peers.size());
      for (const int peer : peers)
        ghost_sends.push_back(GhostSend{r, peer, step, ring.msg_bytes});
      ghost_posts.push_back(post);
    }
  }

  FastForwardResult result{cluster.run_fast_forward(
      active_ranks, programs, ghost_sends, ghost_posts)};

  // Synthesize the silent timelines: one imported canonical row per
  // residue class (its first silent rank), then each silent range aliases
  // onto the canonical rows in bulk.
  const std::vector<RankInterval> silent = complement(plan.active, np);
  std::vector<int> canonical(static_cast<std::size_t>(period), -1);
  int found = 0;
  for (const RankInterval& iv : silent) {
    const int stop = std::min(iv.end, iv.begin + period);
    for (int r = iv.begin; r < stop && found < period; ++r) {
      int& c = canonical[static_cast<std::size_t>(r % period)];
      if (c >= 0) continue;
      result.trace.import_rank(r, ref_trace, r % period);
      c = r;
      ++found;
    }
  }
  // Silent ranks per residue class, counted from the range geometry.
  std::vector<std::int64_t> class_size(static_cast<std::size_t>(period), 0);
  for (const RankInterval& iv : silent) {
    result.trace.alias_periodic(iv.begin, iv.end, canonical);
    const int full = iv.size() / period;
    const int rem = iv.size() % period;
    for (int q = 0; q < period; ++q)
      class_size[static_cast<std::size_t>(q)] +=
          full + ((q - iv.begin % period + period) % period < rem ? 1 : 0);
  }
  for (int q = 0; q < period; ++q) {
    const std::int64_t n = class_size[static_cast<std::size_t>(q)];
    result.skips += static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(ring.steps);
    result.time_skipped += (ref_trace.finish(q) - SimTime::zero()) * n;
  }

  if (exp.cluster.metrics != nullptr) {
    exp.cluster.metrics->add(obs::MetricId::engine_ffwd_skips, result.skips);
    exp.cluster.metrics->add(
        obs::MetricId::engine_ffwd_time_skipped,
        static_cast<std::uint64_t>(result.time_skipped.ns() / 1000));
  }

  IW_AUDIT(audit_cross_check(exp, result.trace));
  return result;
}

}  // namespace iw::core
