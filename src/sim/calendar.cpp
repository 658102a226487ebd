#include "sim/calendar.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "support/error.hpp"

namespace iw::sim {

std::uint64_t Calendar::schedule(SimTime when, EventFn&& fn) {
  const std::uint64_t key = key_of(when);
  if (key < base_) rebase(key);
  const std::uint64_t seq = next_seq_++;
  place(Item{key, acquire_slot(std::move(fn), seq)});
  ++live_;
  if (live_ > peak_size_) peak_size_ = live_;
  return seq;
}

void Calendar::reserve(std::size_t events) {
  slab_.reserve(events);
  slot_seq_.reserve(events);
  free_slots_.reserve(events);
}

void Calendar::reset() noexcept {
  // Audit the structure the finished run left behind: corruption that never
  // surfaced as a wrong pop is still corruption, and the reuse path is
  // about to recycle this storage for the next sweep point. (noexcept: an
  // audit failure here terminates, which is the right call outside tests.)
  IW_AUDIT(audit());
  for (auto& bucket : buckets_) bucket.clear();
  head_ = 0;
  occupied_ = 0;
  base_ = key_of(SimTime::zero());
  slab_.clear();  // destroys any pending closures; capacity is retained
  slot_seq_.clear();
  free_slots_.clear();
  next_seq_ = 0;
  live_ = 0;
  peak_size_ = 0;
}

SimTime Calendar::next_time() {
  IW_REQUIRE(live_ != 0, "next_time on empty calendar");
  if (head_ == buckets_[0].size()) refill();
  return time_of(base_);
}

Event Calendar::pop() {
  IW_REQUIRE(live_ != 0, "pop on empty calendar");
  if (head_ == buckets_[0].size()) refill();
  const std::uint32_t slot = take_front();
  return Event{time_of(base_), slot_seq_[slot], std::move(slab_[slot])};
}

bool Calendar::pop_if_at(SimTime when, EventFn& out) {
  const std::uint64_t key = key_of(when);
  if (head_ == buckets_[0].size()) {
    // Every pending event at the base time sits in bucket 0.
    if (key == base_ || !refill()) return false;
  }
  if (key != base_) return false;
  out = std::move(slab_[take_front()]);
  return true;
}

unsigned Calendar::bucket_of(std::uint64_t key) const noexcept {
  return static_cast<unsigned>(std::bit_width(key ^ base_));
}

void Calendar::place(Item item) {
  const unsigned b = bucket_of(item.key);
  std::vector<Item>& bucket = buckets_[b];
  if (b != 0) {
    if (bucket.empty()) {
      min_key_[b] = max_key_[b] = item.key;
      occupied_ |= 1ull << (b - 1);
    } else {
      min_key_[b] = std::min(min_key_[b], item.key);
      max_key_[b] = std::max(max_key_[b], item.key);
    }
  }
  bucket.push_back(item);
}

bool Calendar::refill() {
  buckets_[0].clear();
  head_ = 0;
  if (occupied_ == 0) return false;
  const auto b = static_cast<unsigned>(std::countr_zero(occupied_)) + 1;
  occupied_ &= occupied_ - 1;
  base_ = min_key_[b];
  std::vector<Item>& from = buckets_[b];
  if (base_ == max_key_[b]) {
    // One timestamp (a same-time burst): the bucket becomes the front.
    buckets_[0].swap(from);
  } else {
    // Every item shares the bits above b-1 with the new base, so each one
    // maps strictly below b: into buckets that are empty, in seq order.
    for (const Item& item : from) place(item);
    from.clear();
  }
  return true;
}

void Calendar::rebase(std::uint64_t key) {
  std::vector<Item> items;
  items.reserve(live_);
  for (unsigned b = 0; b < kBuckets; ++b) {
    std::vector<Item>& bucket = buckets_[b];
    items.insert(items.end(), bucket.begin() + (b == 0 ? head_ : 0),
                 bucket.end());
    bucket.clear();
  }
  head_ = 0;
  occupied_ = 0;
  std::sort(items.begin(), items.end(), [this](const Item& x, const Item& y) {
    return slot_seq_[x.slot] < slot_seq_[y.slot];
  });
  base_ = key;
  for (const Item& item : items) place(item);
}

std::uint32_t Calendar::take_front() {
  const std::uint32_t slot = buckets_[0][head_++].slot;
  IW_ASSERT(slot < slab_.size(), "bucket item references a slot off the slab");
  free_slots_.push_back(slot);
  --live_;
  return slot;
}

std::uint32_t Calendar::acquire_slot(EventFn&& fn, std::uint64_t seq) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
    slot_seq_[slot] = seq;
    return slot;
  }
  IW_CHECK(slab_.size() < std::numeric_limits<std::uint32_t>::max(),
           "calendar slab exhausted (>4G pending)");
  slab_.push_back(std::move(fn));
  slot_seq_.push_back(seq);
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Calendar::audit() const {
#if IW_AUDIT_ENABLED
  // Slab free-list integrity: every free slot is on the slab, and no slot
  // is freed twice.
  std::vector<std::uint8_t> is_free(slab_.size(), 0);
  for (const std::uint32_t slot : free_slots_) {
    IW_ASSERT(slot < slab_.size(), "free list references a slot off the slab");
    IW_ASSERT(!is_free[slot], "slot appears twice on the free list");
    is_free[slot] = 1;
  }
  IW_ASSERT(free_slots_.size() + live_ == slab_.size(),
            "slab accounting broken: live + free != slab extent");

  // Bucket walk: the items must cover exactly the non-free slots.
  IW_ASSERT(head_ <= buckets_[0].size(), "bucket 0 cursor past its end");
  std::size_t bucketed = 0;
  std::vector<std::uint8_t> seen(slab_.size(), 0);
  for (unsigned b = 0; b < kBuckets; ++b) {
    const std::vector<Item>& bucket = buckets_[b];
    const std::size_t first = b == 0 ? head_ : 0;
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    IW_ASSERT(b == 0 || ((occupied_ >> (b - 1)) & 1) == !bucket.empty(),
              "occupancy mask disagrees with the buckets");
    for (std::size_t i = first; i < bucket.size(); ++i) {
      const Item& item = bucket[i];
      IW_ASSERT(item.key >= base_, "pending event precedes the calendar base");
      IW_ASSERT(bucket_of(item.key) == b,
                "item sits outside the bucket its key maps to");
      IW_ASSERT(item.slot < slab_.size(), "item references a slot off the slab");
      IW_ASSERT(!is_free[item.slot], "pending item references a freed slot");
      IW_ASSERT(!seen[item.slot], "slot held by two pending items");
      seen[item.slot] = 1;
      IW_ASSERT(i == first ||
                    slot_seq_[item.slot] > slot_seq_[bucket[i - 1].slot],
                "bucket seq not strictly ascending (FIFO order broken)");
      lo = std::min(lo, item.key);
      hi = std::max(hi, item.key);
      ++bucketed;
    }
    IW_ASSERT(b == 0 || bucket.empty() ||
                  (lo == min_key_[b] && hi == max_key_[b]),
              "bucket key range disagrees with its items");
  }
  IW_ASSERT(bucketed == live_, "live counter does not match bucketed events");
#endif
}

}  // namespace iw::sim
