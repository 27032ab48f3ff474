#include "sim/simulator.hpp"

#include <string>
#include <utility>

#include "util/assert.hpp"

namespace sccft::sim {

Simulator::Simulator() : trace_subject_(trace_.intern("sim")) {}

Simulator::~Simulator() {
  // Pending events still own their callables (coroutine wake lambdas hold
  // liveness tokens, campaign closures hold captures): destroy them so the
  // arena can be torn down without leaking.
  queue_.for_each([](EventRecord* rec) { rec->ops->destroy(rec); });
}

void Simulator::reject_past_schedule(TimeNs t) const {
  util::contract_failure_msg(
      "precondition",
      "schedule_at into the past: t=" + std::to_string(t) +
          " < now()=" + std::to_string(now_),
      __FILE__, __LINE__);
}

void Simulator::dispatch(EventRecord* rec) {
  SCCFT_ASSERT(rec->time >= now_);
  now_ = rec->time;
  ++events_processed_;
  SCCFT_TRACE(trace_, trace::EventKind::kSimDispatch, trace_subject_, now_,
              static_cast<std::int64_t>(rec->seq));
  // Destroy the callable and recycle the record even when the callback throws
  // (contract violations propagate out of run_until into the chaos harness).
  struct Reclaim {
    EventArena& arena;
    EventRecord* rec;
    ~Reclaim() {
      rec->ops->destroy(rec);
      arena.release(rec);
    }
  } reclaim{arena_, rec};
  rec->ops->invoke(rec);
}

void Simulator::run() {
  // A stop requested between run segments must not be discarded: the loop
  // condition observes it before dispatching anything, and observing is what
  // consumes the request (sticky-until-observed).
  while (!queue_.empty() && !stop_requested_) {
    dispatch(queue_.pop());
  }
  stopped_ = std::exchange(stop_requested_, false);
}

bool Simulator::run_until(TimeNs t) {
  SCCFT_EXPECTS(t >= now_);
  while (!stop_requested_) {
    EventRecord* head = queue_.peek();  // the heap's front: O(1)
    if (head == nullptr || head->time > t) break;
    dispatch(queue_.pop());
  }
  stopped_ = std::exchange(stop_requested_, false);
  if (!stopped_ && now_ < t) {
    now_ = t;
    queue_.advance_floor(t);
  }
  return !stopped_;
}

}  // namespace sccft::sim
