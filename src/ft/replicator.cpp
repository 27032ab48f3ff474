#include "ft/replicator.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sccft::ft {

ReplicatorChannel::ReplicatorChannel(sim::Simulator& sim, std::string name,
                                     Config config)
    : sim_(sim),
      name_(std::move(name)),
      subject_(sim.trace().intern(name_)),
      queues_(config.capacities.size()) {
  SCCFT_EXPECTS(queues_.size() >= 2);
  SCCFT_EXPECTS(config.links.empty() || config.links.size() == queues_.size());
  read_interfaces_.reserve(queues_.size());
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    SCCFT_EXPECTS(config.capacities[i] > 0);
    const auto r = static_cast<ReplicaIndex>(i);
    Queue& queue = queues_[i];
    queue.capacity = config.capacities[i];
    queue.subject = sim.trace().intern(name_ + "." + to_string(r));
    if (!config.links.empty()) queue.link = config.links[i];
    read_interfaces_.emplace_back(*this, r);
    // Scrubbable word order (stable, documented in the header).
    scrub_set_.add(queue.capacity);
  }
}

kpn::TokenSource& ReplicatorChannel::read_interface(ReplicaIndex r) {
  return read_interfaces_[static_cast<std::size_t>(index_of(r))];
}

int ReplicatorChannel::healthy_count() const {
  return static_cast<int>(std::count_if(queues_.begin(), queues_.end(),
                                        [](const Queue& q) { return !q.fault; }));
}

bool ReplicatorChannel::try_write(const kpn::Token& token) {
  // Section 3.3: a write attempt that finds space_i == 0 marks replica i
  // faulty; from then on queue i receives no tokens. Applied per queue so a
  // single fault never blocks the producer or starves the healthy replica.
  // Inside a reconfiguration window the rule is suspended (capacities are in
  // flux); the deferred check in end_reconfiguration() convicts any queue
  // whose fill outran its capacity meanwhile.
  if (!reconfiguring_) {
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      Queue& queue = queues_[i];
      if (!queue.fault && static_cast<rtc::Tokens>(queue.slots.size()) >= queue.capacity) {
        declare_fault(static_cast<ReplicaIndex>(i));
      }
    }
  }
  // Rule 3 on the remaining healthy queues: all of them have space now
  // (queues at capacity were just declared faulty), so the write proceeds.
  bool any_healthy = false;
  for (Queue& queue : queues_) {
    if (queue.fault) continue;
    any_healthy = true;
    SCCFT_ASSERT(reconfiguring_ ||
                 static_cast<rtc::Tokens>(queue.slots.size()) < queue.capacity);
    enqueue(queue, token);
  }
  // Every replica faulty exceeds the (N-1)-fault hypothesis; the write is
  // still accepted (and dropped, from every queue's view) so the producer is
  // never wedged.
  if (!any_healthy) {
    for (Queue& queue : queues_) ++queue.stats.tokens_dropped;
    sim_.trace().emit(trace::EventKind::kTokenDrop, subject_, sim_.now(),
                      static_cast<std::int64_t>(token.seq()));
  }
  return true;
}

void ReplicatorChannel::await_writable(std::coroutine_handle<> writer) {
  // try_write never returns false (faults absorb overflow), so the producer
  // never actually suspends here; kept for interface completeness.
  SCCFT_EXPECTS(!waiting_writer_);
  waiting_writer_ = writer;
}

void ReplicatorChannel::enqueue(Queue& queue, const kpn::Token& token) {
  rtc::TimeNs available_at = sim_.now();
  if (queue.link) {
    const auto outcome = queue.link->noc->transfer_ex(
        queue.link->src, queue.link->dst, token.size_bytes(), sim_.now());
    if (!outcome.delivered) {
      // NoC fault exhausted its retransmission budget: this replica's copy
      // is lost in transit. The replica simply skips one iteration; the
      // selector's divergence rule catches a persistently lossy path.
      ++queue.stats.tokens_written;
      ++queue.stats.tokens_dropped;
      sim_.trace().emit(trace::EventKind::kTokenDrop, queue.subject, sim_.now(),
                        static_cast<std::int64_t>(token.seq()));
      return;
    }
    available_at = outcome.arrival;
  }
  queue.slots.push_back(Slot{token, available_at});
  ++queue.stats.tokens_written;
  queue.stats.max_fill =
      std::max(queue.stats.max_fill, static_cast<rtc::Tokens>(queue.slots.size()));
  // Always-on (not macro-gated): the VCD sink derives fill waveforms from
  // enqueue/dequeue events even in compiled-out builds.
  sim_.trace().emit(trace::EventKind::kEnqueue, queue.subject, sim_.now(),
                    static_cast<std::int64_t>(token.seq()),
                    static_cast<std::int64_t>(queue.slots.size()));
  if (queue.waiting_reader) wake_reader(queue, available_at);
}

void ReplicatorChannel::begin_reconfiguration() {
  SCCFT_EXPECTS(!reconfiguring_);
  reconfiguring_ = true;
}

void ReplicatorChannel::end_reconfiguration() {
  SCCFT_EXPECTS(reconfiguring_);
  reconfiguring_ = false;
  // Deferred overflow check. Fill == capacity is a legal steady state (the
  // overflow rule fires on the *write attempt* that finds no space), so only
  // a fill strictly above capacity — reachable solely through window writes —
  // convicts here; anything at exactly capacity is caught by the next write.
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    Queue& queue = queues_[i];
    if (!queue.fault &&
        static_cast<rtc::Tokens>(queue.slots.size()) > queue.capacity) {
      declare_fault(static_cast<ReplicaIndex>(i));
    }
  }
}

rtc::Tokens ReplicatorChannel::set_capacity(ReplicaIndex r, rtc::Tokens requested) {
  SCCFT_EXPECTS(requested > 0);
  Queue& queue = queue_at(r);
  // No retroactive conviction: a shrink stops one slot above the current
  // fill, so the resize itself never makes the overflow rule fire — the
  // queue must genuinely outgrow the new capacity afterwards.
  const auto fill = static_cast<rtc::Tokens>(queue.slots.size());
  const rtc::Tokens applied = std::max(requested, fill + 1);
  queue.capacity = applied;
  return applied;
}

void ReplicatorChannel::freeze_reader(ReplicaIndex r) {
  Queue& queue = queue_at(r);
  queue.reader_frozen = true;
  sim_.trace().emit(trace::EventKind::kFreeze, subject_, sim_.now(), index_of(r));
  // The parked reader's handle is RETAINED: a transient fault must resume it
  // (via unfreeze_reader) so its blocked read completes once the halt ends.
  // Only reintegrate — the restart path — discards it and bumps the epoch;
  // an in-flight wake that fires mid-freeze re-parks the handle instead.
}

void ReplicatorChannel::unfreeze_reader(ReplicaIndex r) {
  Queue& queue = queue_at(r);
  if (!queue.reader_frozen) return;
  queue.reader_frozen = false;
  sim_.trace().emit(trace::EventKind::kUnfreeze, subject_, sim_.now(), index_of(r));
  if (queue.waiting_reader && !queue.slots.empty()) {
    wake_reader(queue, std::max(queue.slots.front().available_at, sim_.now()));
  }
}

void ReplicatorChannel::reintegrate(ReplicaIndex r) {
  Queue& queue = queue_at(r);
  queue.fault = false;
  queue.detection.reset();
  queue.reader_frozen = false;
  queue.waiting_reader = nullptr;  // restart destroyed the old coroutine frame
  ++queue.epoch;                   // invalidate any wake already scheduled
  queue.slots.clear();
  sim_.trace().emit(trace::EventKind::kReintegrate, subject_, sim_.now(), index_of(r));
}

std::optional<kpn::Token> ReplicatorChannel::queue_try_read(ReplicaIndex r) {
  Queue& queue = queue_at(r);
  if (queue.reader_frozen) return std::nullopt;
  if (queue.slots.empty()) return std::nullopt;
  if (queue.slots.front().available_at > sim_.now()) return std::nullopt;
  kpn::Token token = std::move(queue.slots.front().token);
  queue.slots.pop_front();
  ++queue.stats.tokens_read;
  // Always-on: the monitor ActivationBridge observes a replica's consumption
  // stream through these dequeues, so they must survive compiled-out builds.
  sim_.trace().emit(trace::EventKind::kDequeue, queue.subject, sim_.now(),
                    static_cast<std::int64_t>(token.seq()),
                    static_cast<std::int64_t>(queue.slots.size()));
  wake_writer();
  return token;
}

void ReplicatorChannel::queue_await_readable(ReplicaIndex r,
                                             std::coroutine_handle<> reader) {
  Queue& queue = queue_at(r);
  SCCFT_EXPECTS(!queue.waiting_reader);
  queue.waiting_reader = reader;
  ++queue.stats.reader_blocks;
  SCCFT_TRACE(sim_.trace(), trace::EventKind::kReaderBlock, queue.subject, sim_.now());
  if (!queue.slots.empty()) {
    wake_reader(queue, std::max(queue.slots.front().available_at, sim_.now()));
  }
}

void ReplicatorChannel::declare_fault(ReplicaIndex r) {
  Queue& queue = queue_at(r);
  SCCFT_ASSERT(!queue.fault);
  queue.fault = true;
  queue.detection =
      DetectionRecord{r, DetectionRule::kReplicatorOverflow, sim_.now()};
  // The verdict travels the bus; detection logs and supervisors subscribe.
  sim_.trace().emit(trace::EventKind::kDetection, subject_, sim_.now(), index_of(r),
                    static_cast<std::int64_t>(DetectionRule::kReplicatorOverflow));
}

void ReplicatorChannel::wake_reader(Queue& queue, rtc::TimeNs when) {
  if (queue.reader_frozen) return;  // a halted core never resumes its read
  if (!queue.waiting_reader) return;
  auto reader = queue.waiting_reader;
  queue.waiting_reader = nullptr;
  // Re-check at fire time: the replica may have been halted between the
  // write that scheduled this wake and the token's availability instant. A
  // freeze re-parks the handle (a transient unfreeze must find it again); a
  // reintegrate bumps the epoch so the stale wake cannot resume a coroutine
  // the restart destroyed.
  sim_.schedule_at(std::max(when, sim_.now()),
                   [&queue, reader, epoch = queue.epoch] {
                     if (queue.epoch != epoch) return;
                     if (queue.reader_frozen) {
                       queue.waiting_reader = reader;
                       return;
                     }
                     reader.resume();
                   });
}

void ReplicatorChannel::wake_writer() {
  if (!waiting_writer_) return;
  auto writer = waiting_writer_;
  waiting_writer_ = nullptr;
  sim_.schedule_after(0, [writer] { writer.resume(); });
}

kpn::ChannelStats ReplicatorChannel::stats() const {
  kpn::ChannelStats total;
  for (const Queue& queue : queues_) {
    total.max_fill = std::max(total.max_fill, queue.stats.max_fill);
    total.tokens_written += queue.stats.tokens_written;
    total.tokens_read += queue.stats.tokens_read;
    total.tokens_dropped += queue.stats.tokens_dropped;
    total.writer_blocks += queue.stats.writer_blocks;
    total.reader_blocks += queue.stats.reader_blocks;
  }
  return total;
}

void ReplicatorChannel::publish_metrics(trace::MetricsRegistry& registry) const {
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    const Queue& queue = queues_[i];
    const std::string prefix = name_ + "." + to_string(static_cast<ReplicaIndex>(i));
    registry.gauge_max(prefix + ".max_fill",
                       static_cast<std::int64_t>(queue.stats.max_fill));
    registry.add(prefix + ".tokens_written", queue.stats.tokens_written);
    registry.add(prefix + ".tokens_read", queue.stats.tokens_read);
    registry.add(prefix + ".tokens_dropped", queue.stats.tokens_dropped);
    registry.add(prefix + ".reader_blocks", queue.stats.reader_blocks);
  }
  registry.gauge_max(name_ + ".control_bytes",
                     static_cast<std::int64_t>(control_memory_bytes()));
}

std::size_t ReplicatorChannel::control_memory_bytes() const {
  // Control state only: counters, flags, waiters — not token payloads
  // (Table 2 reports "1.5KB + N tokens"-style figures the same way).
  return sizeof(ReplicatorChannel) +
         queues_.size() * (sizeof(Queue) + sizeof(ReadInterface));
}

}  // namespace sccft::ft
