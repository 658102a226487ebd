#include "mpi/process.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace iw::mpi {

Process::Process(int rank, sim::Engine& engine, Transport& transport,
                 Trace& trace)
    : rank_(rank), engine_(engine), transport_(transport), trace_(&trace) {
  IW_REQUIRE(rank >= 0, "rank must be non-negative");
}

void Process::set_program(const Program* program) {
  IW_REQUIRE(program != nullptr, "program must not be null");
  program_ = program;
}

void Process::reset(Trace& trace) {
  trace_ = &trace;
  program_ = nullptr;
  domain_ = nullptr;
  tracer_ = nullptr;
  noise_.clear();
  pc_ = 0;
  next_step_ = 0;
  req_count_ = 0;  // storage binding/capacity retained for the next run
  open_requests_ = 0;
  latest_due_ = SimTime::zero();
  blocked_ = false;
  wait_begin_ = SimTime::zero();
  done_ = false;
  on_done_ = DoneFn{};
}

void Process::reset(int rank, Trace& trace) {
  IW_REQUIRE(rank >= 0, "rank must be non-negative");
  rank_ = rank;
  reset(trace);
}

void Process::set_request_storage(Request* base, std::uint32_t capacity) {
  IW_REQUIRE(req_count_ == 0,
             "cannot rebind request storage while requests are open");
  req_ = base;
  req_cap_ = capacity;
}

void Process::grow_own_requests() {
  IW_CHECK(req_ == nullptr || req_ == own_requests_.data(),
           "request window exceeds the cluster-provided slab capacity");
  own_requests_.resize(std::max<std::size_t>(8, own_requests_.size() * 2));
  req_ = own_requests_.data();
  req_cap_ = static_cast<std::uint32_t>(own_requests_.size());
}

Request& Process::push_request(Request r) {
  if (req_count_ == req_cap_) grow_own_requests();
  req_[req_count_] = r;
  return req_[req_count_++];
}

void Process::add_noise(const noise::NoiseModel* model, Rng rng) {
  IW_REQUIRE(model != nullptr, "noise model must not be null");
  noise_.push_back(NoiseSource{model, rng});
}

void Process::start() {
  IW_REQUIRE(program_ != nullptr, "start() requires a program");
  engine_.at(engine_.now(), [this] { resume(); });
}

Duration Process::sample_noise() {
  Duration extra = Duration::zero();
  for (auto& src : noise_) extra += src.model->sample(src.rng);
  return extra;
}

void Process::resume() {
  const auto& ops = program_->ops();
  while (pc_ < ops.size()) {
    const Op& op = ops[pc_];

    // The send/recv posts lead the dispatch chain: a step posts one of
    // each per neighbor but hits every other op kind once.
    if (const auto* send = std::get_if<OpIsend>(&op)) {
      const auto id = static_cast<RequestId>(req_count_);
      Request& req =
          push_request(Request{Request::Kind::send, send->peer, send->tag,
                               send->bytes, false, false, SimTime::zero()});
      // Eager sends hand back their local-completion delay instead of
      // scheduling a completion event; the request settles by the clock.
      if (const auto local = transport_.post_send(rank_, send->peer,
                                                  send->tag, send->bytes,
                                                  id)) {
        req.timed = true;
        req.due = engine_.now() + *local;
        latest_due_ = std::max(latest_due_, req.due);
      } else {
        ++open_requests_;
      }
      ++pc_;
      continue;
    }

    if (const auto* recv = std::get_if<OpIrecv>(&op)) {
      const auto id = static_cast<RequestId>(req_count_);
      push_request(Request{Request::Kind::recv, recv->peer, recv->tag,
                           recv->bytes, false, false, SimTime::zero()});
      // Count the receive open before posting: an unexpected match settles
      // it synchronously from inside post_recv.
      ++open_requests_;
      transport_.post_recv(rank_, recv->peer, recv->tag, recv->bytes, id);
      ++pc_;
      continue;
    }

    if (const auto* comp = std::get_if<OpCompute>(&op)) {
      const Duration extra = comp->noisy ? sample_noise() : Duration::zero();
      const Duration total = comp->duration + extra;
      const SimTime begin = engine_.now();
      const std::int32_t step = next_step_ - 1;
      engine_.after(total, [this, begin, extra, step] {
        trace_->add_segment(rank_, Segment{SegKind::compute, begin,
                                          engine_.now(), step, extra});
        ++pc_;
        resume();
      });
      return;
    }

    if (const auto* work = std::get_if<OpMemWork>(&op)) {
      IW_REQUIRE(domain_ != nullptr,
                 "OpMemWork requires a bandwidth domain on this rank");
      const Duration extra = work->noisy ? sample_noise() : Duration::zero();
      const SimTime begin = engine_.now();
      const std::int32_t step = next_step_ - 1;
      domain_->submit(work->bytes, [this, begin, extra, step] {
        engine_.after(extra, [this, begin, extra, step] {
          trace_->add_segment(rank_, Segment{SegKind::compute, begin,
                                            engine_.now(), step, extra});
          ++pc_;
          resume();
        });
      });
      return;
    }

    if (const auto* inject = std::get_if<OpInject>(&op)) {
      const SimTime begin = engine_.now();
      const std::int32_t step = next_step_ - 1;
      engine_.after(inject->duration, [this, begin, step] {
        trace_->add_segment(rank_, Segment{SegKind::injected, begin,
                                          engine_.now(), step,
                                          Duration::zero()});
        ++pc_;
        resume();
      });
      return;
    }

    if (std::holds_alternative<OpWaitAll>(op)) {
      if (requests_settled(engine_.now())) {
        req_count_ = 0;
        ++pc_;
        continue;
      }
      blocked_ = true;
      wait_begin_ = engine_.now();
      if (tracer_ != nullptr) [[unlikely]]
        tracer_->record(wait_begin_, obs::TraceEvent::kWaitBegin, rank_);
      schedule_timed_wake();
      return;
    }

    if (const auto* mark = std::get_if<OpMark>(&op)) {
      (void)mark;
      trace_->mark_step(rank_, next_step_, engine_.now());
      ++next_step_;
      ++pc_;
      continue;
    }

    IW_CHECK(false, "unhandled op kind");
  }

  // Program complete.
  if (!done_) {
    done_ = true;
    trace_->set_finish(rank_, engine_.now());
    if (on_done_.fn != nullptr) on_done_.fn(on_done_.ctx, rank_);
  }
}

bool Process::requests_settled(SimTime now) const {
  return open_requests_ == 0 && latest_due_ <= now;
}

void Process::schedule_timed_wake() {
  // If any unfinished request is event-driven, its completion will resume
  // us; otherwise nothing would, so wake at the latest known due time.
  // Each window arms at most one wake: the arming call is the one that
  // settles the last event-driven request, and requests settle only once.
  if (open_requests_ > 0) return;
  engine_.at(latest_due_, [this] {
    if (!blocked_) return;
    IW_ASSERT(requests_settled(engine_.now()),
              "timed wake before every request settled");
    finish_wait();
  });
}

void Process::finish_wait() {
  blocked_ = false;
  const SimTime now = engine_.now();
  if (tracer_ != nullptr) [[unlikely]]
    tracer_->record(now, obs::TraceEvent::kWaitEnd, rank_);
  if (now > wait_begin_) {
    trace_->add_segment(rank_, Segment{SegKind::wait, wait_begin_, now,
                                       next_step_ - 1, Duration::zero()});
  }
  req_count_ = 0;
  latest_due_ = SimTime::zero();
  ++pc_;
  resume();
}

void Process::on_request_complete(RequestId id) {
  IW_REQUIRE(id >= 0 && static_cast<std::uint32_t>(id) < req_count_,
             "unknown request id");
  Request& req = req_[static_cast<std::size_t>(id)];
  IW_ASSERT(!req.complete && !req.timed, "request completed twice");
  req.complete = true;
  --open_requests_;

  if (!blocked_) return;
  if (!requests_settled(engine_.now())) {
    // The last event-driven completion may leave only timed requests with
    // future due points; arm the wake so the WaitAll still ends.
    schedule_timed_wake();
    return;
  }
  finish_wait();
}

void Process::on_request_settles_at(RequestId id, SimTime due) {
  IW_REQUIRE(id >= 0 && static_cast<std::uint32_t>(id) < req_count_,
             "unknown request id");
  Request& req = req_[static_cast<std::size_t>(id)];
  IW_ASSERT(!req.complete && !req.timed, "request settled twice");
  req.timed = true;
  req.due = due;
  latest_due_ = std::max(latest_due_, due);
  --open_requests_;

  if (!blocked_) return;
  if (!requests_settled(engine_.now())) {
    schedule_timed_wake();
    return;
  }
  finish_wait();
}

}  // namespace iw::mpi
