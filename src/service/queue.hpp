// Fair-share job queue of the campaign service.
//
// The controller/queue split follows slurmctld's shape: this class is the
// pure scheduling core — admission quotas, per-client fair share, claim /
// complete / cancel bookkeeping — and knows nothing about sweep points,
// sockets or caches. The service maps each job's "pending slots" onto its
// actual point list; the queue only counts them. Everything here is
// deterministic and synchronous, which is what makes the starvation bound a
// unit-testable invariant (count scheduling decisions, not seconds).
//
// Fair share: every decision claims ONE pending slot and charges its client
// one point; decide() always serves the active client with the smallest
// lifetime charge (ties broken by client name, so the order is total). A
// client that queues 10k points cannot starve a late 100-point client: the
// late client's charge starts at the minimum, so it wins every decision
// until it catches up and at least one in every active_clients decisions
// after — its campaign completes within (active_clients x its_points)
// single-point decisions of its arrival.
//
// Admission: a submission is rejected when the client's uncompleted points
// plus the new campaign's full expansion would exceed the per-client point
// quota, or when its open-job count is at the job quota. The check is
// conservative — it runs before cache credit — so "reject" is decidable
// without expanding or probing anything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace iw::service {

struct QueueLimits {
  /// Max uncompleted points per client across all open jobs (admission).
  std::size_t max_points_per_client = 100000;
  /// Max simultaneously open jobs per client.
  std::size_t max_jobs_per_client = 64;
};

struct Admission {
  bool accepted = false;
  std::string error_code;  ///< "admission-points" | "admission-jobs"
  std::string message;
};

/// One scheduling decision's claim: the pending slot at offset `slot` of
/// job `job`.
struct Claim {
  std::uint64_t job = 0;
  std::size_t slot = 0;
};

class JobQueue {
 public:
  explicit JobQueue(QueueLimits limits = {}) : limits_(limits) {}

  /// Admission check only — mutates nothing. `total_points` is the
  /// campaign's full expansion size.
  [[nodiscard]] Admission check(const std::string& client,
                                std::size_t total_points) const;

  /// Opens an admitted job: `pending` compute slots to schedule plus
  /// `reserved` slots parked on another job's in-flight cache key. Points
  /// served from cache at admission are already complete and never charged.
  void open(const std::string& client, std::uint64_t job, int priority,
            std::size_t pending, std::size_t reserved);

  /// One fair-share scheduling decision; claims the next pending slot of
  /// the chosen job (slots are claimed in offset order). False when nothing
  /// is runnable. Every call that returns true counts as one decision.
  [[nodiscard]] bool decide(Claim& out);

  /// One claimed slot of `job` finished computing (or failed); releases its
  /// quota.
  void complete_claimed(std::uint64_t job);

  /// `count` reserved slots of `job` were filled from the cache.
  void complete_reserved(std::uint64_t job, std::size_t count);

  /// `count` reserved slots of `job` lost their in-flight provider and
  /// re-enter the compute queue as fresh pending slots.
  void promote_reserved(std::uint64_t job, std::size_t count);

  /// Cancels the unclaimed work of `job`. Returns how many pending +
  /// reserved slots were reclaimed; slots already claimed by a worker
  /// drain through complete_claimed() when their point finishes.
  std::size_t cancel(std::uint64_t job);

  /// Claimed slots of `job` still being computed.
  [[nodiscard]] std::size_t claimed(std::uint64_t job) const;

  /// Drops a fully-drained job (all slots completed or reclaimed).
  void close(std::uint64_t job);

  [[nodiscard]] std::size_t queue_depth() const;     ///< unclaimed pending slots
  [[nodiscard]] std::size_t clients_active() const;  ///< clients with open jobs
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }
  /// Uncompleted points currently charged to `client` (admission quota use).
  [[nodiscard]] std::size_t client_load(const std::string& client) const;
  [[nodiscard]] const QueueLimits& limits() const { return limits_; }

 private:
  struct JobEntry {
    std::string client;
    int priority = 0;
    std::uint64_t seq = 0;    ///< admission order (within-priority FIFO)
    std::size_t cursor = 0;   ///< next unclaimed pending-slot offset
    std::size_t pending = 0;  ///< unclaimed slots
    std::size_t claimed = 0;  ///< slots being computed by workers
    std::size_t reserved = 0; ///< slots parked on in-flight cache keys
    bool cancelled = false;
  };
  struct ClientEntry {
    std::size_t open_jobs = 0;
    std::size_t load = 0;       ///< uncompleted points (quota)
    std::uint64_t charged = 0;  ///< lifetime fair-share charge
  };

  JobEntry& entry(std::uint64_t job);
  ClientEntry& client_entry(const std::string& name);

  QueueLimits limits_;
  std::map<std::uint64_t, JobEntry> jobs_;
  std::map<std::string, ClientEntry> clients_;
  std::uint64_t seq_ = 0;
  std::uint64_t decisions_ = 0;
};

}  // namespace iw::service
