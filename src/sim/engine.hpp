// The discrete-event engine.
//
// The engine owns the simulated clock and the calendar and advances time by
// firing events in deterministic (time, sequence) order. Everything in
// idlewave — compute phases, message transfers, protocol handshakes,
// bandwidth-domain re-scheduling — is expressed as events.
#pragma once

#include <cstdint>

#include "sim/calendar.hpp"
#include "support/time.hpp"

namespace iw::obs {
class Tracer;
}

namespace iw::sim {

class Engine {
 public:
  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `when`; `when` must not precede now().
  void at(SimTime when, EventFn fn);

  /// Schedules `fn` after a non-negative delay from now().
  void after(Duration delay, EventFn fn);

  /// Runs until the calendar empties or stop() is called.
  void run();

  /// Runs until simulated time exceeds `deadline` (events exactly at the
  /// deadline still fire), the calendar empties, or stop() is called.
  void run_until(SimTime deadline);

  /// Requests the run loop to exit after the current event.
  void stop() { stopped_ = true; }

  /// Rewinds the engine to its freshly constructed state — clock at zero,
  /// counters cleared, every pending event discarded — while keeping the
  /// calendar's slab capacity. The reuse path (Cluster::reset) relies on a
  /// reset engine being indistinguishable from a new one; audit builds
  /// verify that post-condition structurally.
  void reset() noexcept {
    calendar_.reset();
    now_ = SimTime::zero();
    stopped_ = false;
    processed_ = 0;
    batches_ = 0;
    tracer_ = nullptr;
    IW_ASSERT(calendar_.empty() && calendar_.size() == 0 &&
                  calendar_.peak_size() == 0,
              "Engine::reset post-condition: calendar not pristine");
    IW_AUDIT(calendar_.audit());
  }

  /// Arms (or with nullptr disarms) the protocol flight recorder: the run
  /// loop brackets each run with run_begin/run_end records. Cleared by
  /// reset(); harnesses re-arm per run.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Pre-sizes the calendar for `events` simultaneously pending events.
  void reserve_events(std::size_t events) { calendar_.reserve(events); }

  [[nodiscard]] bool stopped() const { return stopped_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  /// Same-timestamp batches drained (outer run-loop iterations); the
  /// events_processed/batches ratio is the mean events per timestamp, i.e.
  /// how many pops each bucket-0 refill of the calendar serves.
  [[nodiscard]] std::uint64_t batches() const { return batches_; }
  [[nodiscard]] std::size_t events_pending() const { return calendar_.size(); }

  /// Largest calendar population seen so far — the working-set figure the
  /// perf bench tracks (BENCH_engine.json).
  [[nodiscard]] std::size_t peak_events_pending() const {
    return calendar_.peak_size();
  }

 private:
  Calendar calendar_;
  SimTime now_ = SimTime::zero();
  bool stopped_ = false;
  std::uint64_t processed_ = 0;
  std::uint64_t batches_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace iw::sim
