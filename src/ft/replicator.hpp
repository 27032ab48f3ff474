// The replicator channel (paper Section 3.1, rules 1-3; Section 3.3 fault
// detection), for any replica count N >= 2.
//
// One writing interface (the producer) and N reading interfaces (one per
// replica). Every accepted token is duplicated into each per-replica FIFO
// queue. Bookkeeping follows the paper exactly:
//
//   rule 1: N queues of capacities |R_i| with space/fill counters, initially
//           fill_i = 0, space_i = |R_i|;
//   rule 2: each reading interface destructively and blockingly reads its
//           own queue; a read increments space_i and decrements fill_i;
//   rule 3: a write enqueues into EVERY queue iff min_i space_i > 0, else the
//           writer blocks.
//
// Fault detection (Section 3.3): under fault-free conditions the queues never
// overflow (their capacities come from Eq. (3)), so if the producer attempts
// a write and finds space_i == 0, replica i is declared faulty
// (fault_i := TRUE) and the replicator stops inserting tokens into queue i —
// the producer therefore never blocks on a dead replica, which prevents the
// "deadlocked non-faulty replica" scenario of Section 1.1. With N replicas up
// to N-1 of them can be convicted this way (the paper's n-fault setup).
//
// Verdicts are published on the simulator's trace bus as kDetection events
// (subject = trace_subject(), a = replica index, b = DetectionRule);
// observers subscribe to the bus.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "ft/replica.hpp"
#include "ft/scrub.hpp"
#include "kpn/channel.hpp"
#include "sim/simulator.hpp"
#include "trace/bus.hpp"

namespace sccft::ft {

class ReplicatorChannel final : public kpn::ChannelBase,
                                public kpn::TokenSink,
                                public Scrubbable {
 public:
  struct Config {
    /// |R_i| from Eq. (3), one per replica; its size is the replica count.
    std::vector<rtc::Tokens> capacities{};
    /// Optional NoC links producer->replica-input cores (latency modelling):
    /// empty, or one entry per replica.
    std::vector<std::optional<kpn::FifoChannel::LinkModel>> links{};
  };

  ReplicatorChannel(sim::Simulator& sim, std::string name, Config config);

  [[nodiscard]] int replica_count() const { return static_cast<int>(queues_.size()); }

  /// The reading interface of replica `r` (single reader each).
  [[nodiscard]] kpn::TokenSource& read_interface(ReplicaIndex r);

  /// Trace subjects: the channel itself and each per-replica queue
  /// ("<name>.R1", "<name>.R2", ...). Bus subscribers (monitor bridges, VCD,
  /// detection logs) key their filters on these.
  [[nodiscard]] trace::SubjectId trace_subject() const { return subject_; }
  [[nodiscard]] trace::SubjectId queue_subject(ReplicaIndex r) const {
    return queue_at(r).subject;
  }

  // TokenSink (the producer's single writing interface)
  [[nodiscard]] bool try_write(const kpn::Token& token) override;
  void await_writable(std::coroutine_handle<> writer) override;
  [[nodiscard]] std::string sink_name() const override { return name_; }

  // ChannelBase
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] kpn::ChannelStats stats() const override;
  void publish_metrics(trace::MetricsRegistry& registry) const override;

  /// Per-queue statistics (Table 2's "Max. Observed fill" per |R_i|).
  [[nodiscard]] kpn::ChannelStats queue_stats(ReplicaIndex r) const {
    return queue_at(r).stats;
  }

  [[nodiscard]] bool fault(ReplicaIndex r) const { return queue_at(r).fault; }
  [[nodiscard]] std::optional<DetectionRecord> detection(ReplicaIndex r) const {
    return queue_at(r).detection;
  }
  /// Replicas not (yet) declared faulty.
  [[nodiscard]] int healthy_count() const;

  /// Models the replica's core halting: from now on, no reads are served on
  /// interface `r` (a crashed core issues no more reads, even if its process
  /// coroutine is currently parked inside a read await). Used by silence
  /// fault injection so that consumption stops exactly at the fault instant.
  /// A parked reader stays parked with its handle retained: transient faults
  /// resume it via unfreeze_reader, recovery discards it via reintegrate.
  void freeze_reader(ReplicaIndex r);

  /// Ends a transient halt: reads on interface `r` are served again and a
  /// reader parked across the freeze is woken if its queue has tokens.
  void unfreeze_reader(ReplicaIndex r);

  /// Recovery extension: re-admits a previously faulty replica. Clears the
  /// fault flag and the freeze, discards the stale queue contents (the
  /// rejoining replica resumes from the producer's current position), and
  /// resumes duplication into its queue.
  void reintegrate(ReplicaIndex r);

  // --- live-resize protocol (src/adapt/reconfig.hpp) ----------------------
  /// Opens a reconfiguration window: the overflow rule is suspended and
  /// writes beyond capacity are absorbed by the physical deque, so no token
  /// is ever dropped while capacities are in flux. Detection is deferred,
  /// not lost — see end_reconfiguration().
  void begin_reconfiguration();

  /// Closes the window: the overflow rule re-arms against the (possibly
  /// resized) capacities, and any healthy queue whose fill outran its
  /// capacity during the window is convicted now — detection latency for a
  /// fault landing inside the window is bounded by the window length.
  void end_reconfiguration();

  [[nodiscard]] bool reconfiguring() const { return reconfiguring_; }

  /// Applies a new capacity to queue `r` and returns the value actually
  /// installed. A shrink clamps at fill+1 — one slot above the current fill —
  /// so a resize by itself can never trip the overflow rule retroactively;
  /// demand is policed at the new capacity from the next write on.
  rtc::Tokens set_capacity(ReplicaIndex r, rtc::Tokens requested);

  [[nodiscard]] rtc::Tokens capacity(ReplicaIndex r) const { return queue_at(r).capacity; }

  [[nodiscard]] rtc::Tokens space(ReplicaIndex r) const {
    return queue_at(r).capacity - fill(r);
  }
  [[nodiscard]] rtc::Tokens fill(ReplicaIndex r) const {
    return static_cast<rtc::Tokens>(queue_at(r).slots.size());
  }

  /// Approximate resident memory of the channel's control structures in
  /// bytes, excluding token payload storage (Table 2 "Memory overhead"): the
  /// channel object plus its per-replica queue and interface records.
  [[nodiscard]] std::size_t control_memory_bytes() const;

  // Scrubbable: TMR-protected control words, in stable index order
  //   {R1.capacity, R2.capacity, ..., RN.capacity}. The fills are implicit
  //   deque sizes, so the capacities are the only words the overflow rule
  //   reads from memory.
  [[nodiscard]] std::string scrub_name() const override { return name_; }
  [[nodiscard]] int control_word_count() const override { return scrub_set_.size(); }
  void corrupt_control_word(int word, int copy, std::uint64_t mask) override {
    scrub_set_.corrupt(word, copy, mask);
  }
  [[nodiscard]] ScrubReport scrub_control_state() override { return scrub_set_.scrub(); }

 private:
  struct Slot {
    kpn::Token token;
    rtc::TimeNs available_at = 0;
  };
  struct Queue {
    Tmr<rtc::Tokens> capacity = 0;  ///< TMR-protected (see Scrubbable above)
    trace::SubjectId subject = 0;
    std::deque<Slot> slots;
    std::coroutine_handle<> waiting_reader;
    bool reader_frozen = false;
    /// Bumped on freeze/reintegrate; scheduled reader wake-ups check it so a
    /// stale event never resumes a coroutine destroyed by a restart.
    std::uint64_t epoch = 0;
    bool fault = false;
    std::optional<DetectionRecord> detection;
    std::optional<kpn::FifoChannel::LinkModel> link;
    kpn::ChannelStats stats;
  };

  /// TokenSource adapter bound to one queue.
  class ReadInterface final : public kpn::TokenSource {
   public:
    ReadInterface(ReplicatorChannel& owner, ReplicaIndex replica)
        : owner_(owner), replica_(replica) {}
    [[nodiscard]] std::optional<kpn::Token> try_read() override {
      return owner_.queue_try_read(replica_);
    }
    void await_readable(std::coroutine_handle<> reader) override {
      owner_.queue_await_readable(replica_, reader);
    }
    [[nodiscard]] std::string source_name() const override {
      return owner_.name_ + "." + to_string(replica_);
    }

   private:
    ReplicatorChannel& owner_;
    ReplicaIndex replica_;
  };

  [[nodiscard]] Queue& queue_at(ReplicaIndex r) {
    return queues_[static_cast<std::size_t>(index_of(r))];
  }
  [[nodiscard]] const Queue& queue_at(ReplicaIndex r) const {
    return queues_[static_cast<std::size_t>(index_of(r))];
  }
  [[nodiscard]] std::optional<kpn::Token> queue_try_read(ReplicaIndex r);
  void queue_await_readable(ReplicaIndex r, std::coroutine_handle<> reader);
  void declare_fault(ReplicaIndex r);
  void enqueue(Queue& queue, const kpn::Token& token);
  void wake_reader(Queue& queue, rtc::TimeNs when);
  void wake_writer();

  sim::Simulator& sim_;
  std::string name_;
  trace::SubjectId subject_;
  bool reconfiguring_ = false;
  /// Sized once at construction and never resized: the scrub set, the read
  /// interfaces and scheduled wakes hold references into them.
  std::vector<Queue> queues_;
  std::vector<ReadInterface> read_interfaces_;
  std::coroutine_handle<> waiting_writer_;
  ScrubSet scrub_set_;
};

}  // namespace sccft::ft
