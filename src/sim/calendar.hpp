// The event calendar: a deterministic monotone radix heap of future events.
//
// Storage: closures live in a slab of EventFn slots from schedule() to
// pop(), where they are moved (never copied) out to the caller. Freed slots
// are recycled LIFO so a steady-state simulation (schedule/pop churn at a
// roughly constant horizon) touches a small, cache-resident working set.
//
// Order: the queue holds 16-byte (key, slot) items in 65 buckets relative
// to `base_`, the earliest pending time once the front is due. An item
// sits in bucket bit_width(key ^ base_): one past the highest bit in which
// its time differs from the base. Bucket 0 therefore holds exactly the
// events at the base time and drains FIFO from a cursor. When it runs dry,
// the earliest time in the lowest non-empty bucket (each bucket tracks its
// key range as items arrive) becomes the new base, and that bucket's items
// move, stably, into the strictly lower buckets they now map to; a bucket
// holding one timestamp is handed to bucket 0 whole. An item moves down at
// most once per bit level, so a schedule/pop pair costs O(log horizon)
// amortised however many events are pending, and a timestamp with a single
// event (the common case under per-phase noise) never meets a comparison
// tree.
//
// Determinism: the (time, seq) contract needs no time index. Every bucket
// stays in ascending seq order: schedule() appends the largest seq yet, and
// a redistribution moves a seq-ordered bucket stably into buckets that are
// empty (they lie below the lowest non-empty one). Equal-time events thus
// reach bucket 0 in seq order, and a same-time burst scheduled while bucket
// 0 drains queues behind it.
//
// Monotonicity: the engine never schedules before now(), but run_until()
// can stop after next_time() has moved the base past now(). A later
// schedule between now() and the base re-buckets every pending item around
// the new, earlier base (O(n log n); a sort restores seq order). The same
// path keeps the calendar correct for arbitrary schedule orders.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "support/check.hpp"

namespace iw::sim {

class Calendar {
 public:
  /// Enqueues `fn` to run at `when`. Returns the event's sequence number
  /// (useful only for diagnostics; events cannot be cancelled — cancellation
  /// is expressed by the closure checking its own validity flag).
  std::uint64_t schedule(SimTime when, EventFn&& fn);

  /// Pre-sizes the slab and free list for `events` simultaneously pending
  /// events. Buckets grow on demand and keep their capacity across reset().
  void reserve(std::size_t events);

  /// Discards every pending event and restores the pristine state (seq
  /// counter, base time and peak tracking included) while keeping all heap
  /// capacity — the slab, free list and buckets stay allocated. A reset
  /// calendar behaves exactly like a freshly constructed one, which is what
  /// makes cluster reuse byte-deterministic.
  void reset() noexcept;

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Largest number of simultaneously pending events seen so far.
  [[nodiscard]] std::size_t peak_size() const noexcept { return peak_size_; }

  /// Time of the earliest pending event. Requires !empty(). Moves the next
  /// timestamp's events to the front, so it is not const; the order in
  /// which events come out is unaffected.
  [[nodiscard]] SimTime next_time();

  /// Removes and returns the earliest event. Requires !empty().
  Event pop();

  /// Fast path for draining a same-timestamp batch: if the earliest pending
  /// event fires exactly at `when`, moves its closure into `out` and returns
  /// true; otherwise leaves `out` untouched and returns false. Equal-time
  /// events come out in ascending seq order, so a drain loop preserves the
  /// deterministic (time, seq) contract.
  bool pop_if_at(SimTime when, EventFn& out);

  /// Full structural audit (audit builds only; a no-op otherwise). Checks
  /// that every pending item sits in the bucket its key maps to (so bucket
  /// 0 from the cursor holds exactly the base time, and nothing precedes
  /// the base), that the occupancy mask matches the buckets, that each
  /// bucket is in ascending seq order over live slots only, and reconciles
  /// the slot accounting: bucketed items == size() and live + free == slab
  /// extent. O(n); called from Engine::reset and the audit-mode tests,
  /// never per event.
  void audit() const;

 private:
  static constexpr unsigned kBuckets = 65;

  struct Item {
    std::uint64_t key;  ///< order-preserving unsigned image of the time
    std::uint32_t slot;
  };

  /// Flips the sign bit so unsigned key order is signed time order.
  static std::uint64_t key_of(SimTime t) noexcept {
    return static_cast<std::uint64_t>(t.ns()) ^ (1ull << 63);
  }
  static SimTime time_of(std::uint64_t key) noexcept {
    return SimTime{static_cast<std::int64_t>(key ^ (1ull << 63))};
  }

  [[nodiscard]] unsigned bucket_of(std::uint64_t key) const noexcept;
  void place(Item item);
  /// Refills the drained bucket 0 from the lowest non-empty bucket; false
  /// when nothing is pending.
  bool refill();
  /// Re-buckets everything around a base earlier than the current one.
  void rebase(std::uint64_t key);
  /// Pops bucket 0's head and releases its slot (the closure stays in the
  /// slab until the caller moves it out).
  std::uint32_t take_front();
  std::uint32_t acquire_slot(EventFn&& fn, std::uint64_t seq);

  std::array<std::vector<Item>, kBuckets> buckets_;
  /// Earliest and latest key in each non-empty bucket above 0, kept by
  /// place() so a refill need not scan the bucket it empties.
  std::array<std::uint64_t, kBuckets> min_key_{};
  std::array<std::uint64_t, kBuckets> max_key_{};
  std::size_t head_ = 0;       ///< FIFO cursor into buckets_[0]
  std::uint64_t occupied_ = 0; ///< bit b-1 set iff buckets_[b] is non-empty
  std::uint64_t base_ = key_of(SimTime::zero());
  std::vector<EventFn> slab_;  ///< closure storage, indexed by slot
  std::vector<std::uint64_t> slot_seq_;  ///< per-slot sequence numbers
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace iw::sim
