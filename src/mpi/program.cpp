#include "mpi/program.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace iw::mpi {

Program& Program::compute(Duration d, bool noisy) {
  IW_REQUIRE(d.ns() >= 0, "compute duration must be non-negative");
  ops_.emplace_back(OpCompute{d, noisy});
  ++segment_bound_;
  return *this;
}

Program& Program::mem_work(std::int64_t bytes, bool noisy) {
  IW_REQUIRE(bytes >= 0, "memory work must be non-negative");
  ops_.emplace_back(OpMemWork{bytes, noisy});
  ++segment_bound_;
  return *this;
}

Program& Program::inject(Duration d) {
  IW_REQUIRE(d.ns() >= 0, "injected delay must be non-negative");
  ops_.emplace_back(OpInject{d});
  ++segment_bound_;
  return *this;
}

Program& Program::isend(int peer, std::int64_t bytes, int tag) {
  IW_REQUIRE(peer >= 0, "send peer must be a valid rank");
  IW_REQUIRE(bytes >= 0, "message size must be non-negative");
  ops_.emplace_back(OpIsend{peer, bytes, tag});
  max_window_requests_ = std::max(max_window_requests_, ++window_requests_);
  return *this;
}

Program& Program::irecv(int peer, std::int64_t bytes, int tag) {
  IW_REQUIRE(peer >= 0, "recv peer must be a valid rank");
  IW_REQUIRE(bytes >= 0, "message size must be non-negative");
  ops_.emplace_back(OpIrecv{peer, bytes, tag});
  max_window_requests_ = std::max(max_window_requests_, ++window_requests_);
  return *this;
}

Program& Program::waitall() {
  ops_.emplace_back(OpWaitAll{});
  window_requests_ = 0;
  ++segment_bound_;
  ++rounds_;
  return *this;
}

Program& Program::mark(std::int32_t step) {
  ops_.emplace_back(OpMark{step});
  return *this;
}

Duration Program::total_injected() const {
  Duration total = Duration::zero();
  for (const auto& op : ops_)
    if (const auto* inject = std::get_if<OpInject>(&op))
      total += inject->duration;
  return total;
}

}  // namespace iw::mpi
