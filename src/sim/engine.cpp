#include "sim/engine.hpp"

#include <utility>

#include "obs/tracer.hpp"
#include "support/error.hpp"

namespace iw::sim {

void Engine::at(SimTime when, EventFn fn) {
  IW_REQUIRE(when >= now_, "cannot schedule an event in the past");
  calendar_.schedule(when, std::move(fn));
}

void Engine::after(Duration delay, EventFn fn) {
  IW_REQUIRE(delay.ns() >= 0, "event delay must be non-negative");
  calendar_.schedule(now_ + delay, std::move(fn));
}

void Engine::run() { run_until(SimTime::max()); }

void Engine::run_until(SimTime deadline) {
  stopped_ = false;
  if (tracer_ != nullptr)
    tracer_->record(now_, obs::TraceEvent::kRunBegin, -1);
  EventFn fn;
  while (!stopped_ && !calendar_.empty()) {
    const SimTime batch = calendar_.next_time();
    if (batch > deadline) break;
    IW_ASSERT(batch >= now_, "calendar produced an out-of-order event");
    now_ = batch;
    ++batches_;
    // Same-timestamp fast path: drain the whole batch with one combined
    // check-and-pop per event instead of an empty/next_time/pop triple.
    // (time, seq) determinism is preserved: the calendar yields equal-time
    // events in ascending seq order, and anything scheduled at `batch`
    // from inside a handler gets a larger seq, so it drains after the
    // events already pending — exactly the one-at-a-time order.
    while (calendar_.pop_if_at(batch, fn)) {
      ++processed_;
      fn();
      if (stopped_) break;
    }
  }
  if (tracer_ != nullptr) tracer_->record(now_, obs::TraceEvent::kRunEnd, -1);
}

}  // namespace iw::sim
