// The selector channel (paper Section 3.1, rules 1-3; Section 3.3 fault
// detection), for any replica count N >= 2.
//
// N writing interfaces (one per replica) and a single reading interface (the
// consumer). The selector keeps ONE physical FIFO of capacity
// |S| = max_i |S_i| and N virtual space counters:
//
//   rule 1: fill = 0, space_i = |S_i| initially (with Eq. (4) initial tokens
//           preloaded, space_i starts at |S_i| - |S_i|_0 and fill at the
//           preload count);
//   rule 2: a consumer read increments EVERY space counter and decrements
//           fill;
//   rule 3: a write on interface i blocks if space_i == 0; otherwise, if the
//           token is the FIRST of its duplicate group it is enqueued
//           (fill++), else it is a LATE duplicate and is dropped; space_i is
//           decremented either way.
//
// Lemma 1 (isolation) holds by construction: interface j never touches
// space_i, so back-pressure on replica i is independent of every peer.
//
// Fault detection (Section 3.3), with at least one healthy replica always
// kept (the (N-1)-fault hypothesis):
//  (a) stall rule  — on a read, if space_i > |S_i| then replica i has fallen
//      so far behind that it would eventually stall the consumer: faulty.
//  (b) divergence rule — a replica whose count of tokens *received* W_i lags
//      the most advanced healthy replica by the Eq. (5) threshold D is
//      faulty. (The paper phrases this as |space_1 - space_2| for N = 2;
//      with equal |S_i| - |S_i|_0 the two are identical, and the received-
//      token difference is the quantity its Eq. (6) latency analysis uses.)
//  (c) corruption rule (extension) — every arriving token's CRC-32 is
//      re-verified against its stored checksum; a mismatch is quarantined
//      (dropped without advancing the received count, so a peer's healthy
//      copy becomes the delivered first-of-group) and reaching the configured
//      mismatch threshold convicts the replica through the same
//      fault-declaration path as (a)/(b), preserving Lemma 1 isolation.
//
// Vote mode (Config::enable_payload_vote) replaces first-of-group delivery
// with a payload vote per duplicate group (see Config).
//
// Verdicts are published on the simulator's trace bus as kDetection events
// (subject = trace_subject(), a = replica index, b = DetectionRule);
// observers subscribe to the bus.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "ft/replica.hpp"
#include "ft/scrub.hpp"
#include "kpn/channel.hpp"
#include "sim/simulator.hpp"
#include "trace/bus.hpp"

namespace sccft::ft {

class SelectorChannel final : public kpn::ChannelBase,
                              public kpn::TokenSource,
                              public Scrubbable {
 public:
  struct Config {
    /// |S_i|, one per replica; its size is the replica count.
    std::vector<rtc::Tokens> capacities{};
    /// |S_i|_0 (Eq. 4): empty (all zero) or one per replica.
    std::vector<rtc::Tokens> initials{};
    rtc::Tokens divergence_threshold = 0;  ///< D (Eq. 5); 0 disables rule (b)
    bool enable_stall_rule = true;         ///< rule (a); ablatable
    bool verify_checksums = true;          ///< rule (c); ablatable
    /// CRC mismatches needed to convict a replica (rule (c)). One corrupted
    /// token could be a cosmic-ray single event; a repeat offender is a
    /// faulty core or link.
    int corruption_conviction_threshold = 3;
    /// Majority-vote delivery: arrivals are buffered per duplicate group and
    /// groups are resolved strictly in order. A group resolves as soon as a
    /// strict majority of the non-convicted sides agree on a payload
    /// fingerprint (the earliest agreeing arrival is delivered and any
    /// dissenting side is convicted by rule kSelectorVote), or — failing a
    /// majority once every live side has reported — by delivering the first
    /// arrival and counting a vote_conflict (detect-only: with N=2 there is
    /// no majority to out-vote a silent corrupter). Requires every capacity
    /// to exceed the divergence threshold so a healthy leader reaches the
    /// rule (b) verdict against a stalled laggard before exhausting its own
    /// space, and supports neither reintegrate() (no restart path) nor NoC
    /// links.
    bool enable_payload_vote = false;
    /// Optional NoC links replica-output -> consumer cores: empty, or one
    /// entry per replica.
    std::vector<std::optional<kpn::FifoChannel::LinkModel>> links{};
  };

  /// Fault-injection hook applied to every token arriving on one interface
  /// (models corruption in the replica's core or on the output link).
  using WriteTamper = std::function<kpn::Token(const kpn::Token&)>;

  SelectorChannel(sim::Simulator& sim, std::string name, Config config);

  [[nodiscard]] int replica_count() const { return static_cast<int>(sides_.size()); }

  /// The writing interface of replica `r` (single writer each).
  [[nodiscard]] kpn::TokenSink& write_interface(ReplicaIndex r);

  /// Trace subjects: the channel itself and each per-replica writing side
  /// ("<name>.S1", "<name>.S2", ...). Bus subscribers key their filters on
  /// these.
  [[nodiscard]] trace::SubjectId trace_subject() const { return subject_; }
  [[nodiscard]] trace::SubjectId side_subject(ReplicaIndex r) const {
    return side_at(r).subject;
  }

  /// Optionally preloads the Eq. (4) initial tokens physically
  /// (max_i |S_i|_0 copies of `token`) so the consumer never blocks, even at
  /// startup. The space counters are offset by |S_i|_0 either way (rule 1
  /// with initial conditions); without physical preload the consumer simply
  /// blocks for the pipeline-fill transient, as the paper's experimental
  /// setup does. Call before the run starts.
  void preload_initial_tokens(const kpn::Token& token);

  // TokenSource (the consumer's single reading interface)
  [[nodiscard]] std::optional<kpn::Token> try_read() override;
  void await_readable(std::coroutine_handle<> reader) override;
  [[nodiscard]] std::string source_name() const override { return name_; }

  // ChannelBase
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] kpn::ChannelStats stats() const override { return stats_; }
  void publish_metrics(trace::MetricsRegistry& registry) const override;

  [[nodiscard]] rtc::Tokens space(ReplicaIndex r) const { return side_at(r).space; }
  [[nodiscard]] rtc::Tokens fill() const { return static_cast<rtc::Tokens>(queue_.size()); }

  /// High-water mark of FIFO occupancy beyond the not-yet-consumed preload
  /// (Table 2 reports observed fills this way: initial tokens excluded).
  [[nodiscard]] rtc::Tokens max_observed_fill(ReplicaIndex r) const {
    return side_at(r).max_virtual_fill;
  }

  [[nodiscard]] std::uint64_t tokens_received(ReplicaIndex r) const {
    return side_at(r).tokens_received;
  }

  [[nodiscard]] bool fault(ReplicaIndex r) const { return side_at(r).fault; }
  [[nodiscard]] std::optional<DetectionRecord> detection(ReplicaIndex r) const {
    return side_at(r).detection;
  }
  /// Replicas not (yet) declared faulty.
  [[nodiscard]] int healthy_count() const;

  /// Tokens quarantined on interface `r` by the CRC rule (c).
  [[nodiscard]] std::uint64_t crc_mismatches(ReplicaIndex r) const {
    return side_at(r).crc_mismatches;
  }
  /// Duplicate groups where every live side reported but no strict majority
  /// fingerprint existed (vote mode only; N=2's detect-without-mask case).
  [[nodiscard]] std::uint64_t vote_conflicts() const { return vote_conflicts_; }
  /// Tokens whose fingerprint lost a resolved vote (dissenter arrivals).
  [[nodiscard]] std::uint64_t votes_outvoted() const { return votes_outvoted_; }

  /// Installs (or, with an empty function, removes) the fault-injection
  /// tamper applied to tokens arriving on interface `r`.
  void set_write_tamper(ReplicaIndex r, WriteTamper tamper);

  /// Models the replica's core halting: writes on interface `r` are accepted
  /// and discarded from now on (a token half-written by a crashed core never
  /// materializes). Used by silence fault injection so production stops
  /// exactly at the fault instant. A writer parked on the interface stays
  /// parked (its handle is kept; transient faults resume it via
  /// unfreeze_writer, recovery discards it via reintegrate).
  void freeze_writer(ReplicaIndex r);

  /// Ends a transient halt: writes on interface `r` flow again and a writer
  /// parked across the freeze is woken (its retried token is delivered late,
  /// not lost).
  void unfreeze_writer(ReplicaIndex r);

  /// Recovery extension: re-admits a previously faulty replica. The space
  /// counter restarts at |S_i| - |S_i|_0 and the received-token counter is
  /// re-synchronized on the replica's first write after rejoining, using the
  /// token's sequence number against the most advanced peer's last delivered
  /// sequence — this restores exact duplicate-group alignment even though
  /// the rejoining replica skipped the tokens that were in flight while it
  /// was down. Not available in vote mode.
  void reintegrate(ReplicaIndex r);

  // --- live-resize protocol (src/adapt/reconfig.hpp) ----------------------
  /// Opens a reconfiguration window. While it is open the divergence rule
  /// (b) is suspended (its threshold is in flux) and a rejoining writer's
  /// re-anchor is deferred — frontier_hold_active treats every resync-pending
  /// side as held, reusing the rejoin frontier-hold machinery, because the
  /// re-anchor reads exactly the counters a resize is about to re-baseline.
  /// Data-path writes, reads, and the stall/CRC rules flow untouched.
  void begin_reconfiguration();

  /// Closes the window: re-runs the divergence rule against the (possibly
  /// resized) threshold — detection deferred across the window, not lost —
  /// and wakes any writer the window held.
  void end_reconfiguration();

  [[nodiscard]] bool reconfiguring() const { return reconfiguring_; }

  /// Installs a new divergence threshold D and returns the value actually
  /// applied. A narrowing clamps one token above the current spread of the
  /// received counts (max_i W_i - min_i W_i) so the resize itself never
  /// convicts retroactively — the divergence must genuinely deepen
  /// afterwards to reach the new threshold. 0 disables rule (b), as at
  /// construction.
  rtc::Tokens set_divergence_threshold(rtc::Tokens requested);

  [[nodiscard]] rtc::Tokens divergence_threshold() const {
    return divergence_threshold_;
  }

  /// Control-structure memory, payloads excluded (Table 2 memory overhead):
  /// the channel object plus its per-replica side and interface records.
  [[nodiscard]] std::size_t control_memory_bytes() const;

  // Scrubbable: TMR-protected control words, in stable index order
  //   side 1 {capacity, initial, space, virtual_fill, tokens_received,
  //   last_seq}, side 2 {same}, ..., side N {same}, last_enqueued_seq_,
  //   divergence_threshold_  (6N + 2 words; 14 for the duplicated pair).
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
    std::optional<ReplicaIndex> origin;  ///< nullopt for preloaded tokens
  };
  // The per-side bookkeeping the detection rules read is TMR-protected
  // (Tmr<T>, ft/scrub.hpp): a kCounterCorruption flip lands in one shadow
  // copy and is outvoted until the scrubber repairs it.
  struct Side {
    Tmr<rtc::Tokens> capacity = 0;   ///< |S_i|
    trace::SubjectId subject = 0;
    Tmr<rtc::Tokens> space = 0;      ///< space_i
    Tmr<std::uint64_t> tokens_received = 0;  ///< W_i: accepted writes (queued or dropped)
    Tmr<rtc::Tokens> virtual_fill = 0;  ///< enqueued-from-i minus consumed, >= 0
    rtc::Tokens max_virtual_fill = 0;
    Tmr<rtc::Tokens> initial = 0;    ///< |S_i|_0 (kept for reintegration)
    Tmr<std::uint64_t> last_seq = 0;  ///< sequence of the most recent write
    bool resync_pending = false;     ///< first write after reintegrate()
    /// Sequence of the write last refused by the rejoin frontier hold;
    /// wake_writers consults it so a held writer is only resumed once the
    /// hold has actually lifted (try_write would succeed).
    std::uint64_t held_seq = 0;
    /// Set by a CRC quarantine or a lost NoC transfer outside vote mode: the
    /// received count no longer matches the arrival count, so it is
    /// re-anchored (by sequence number, against the most advanced peer) on
    /// the next healthy write — otherwise the offset would misclassify this
    /// replica's healthy tokens as late duplicates forever. Vote mode keeps
    /// the offset: its group numbering is the received count itself.
    bool count_resync_pending = false;
    std::coroutine_handle<> waiting_writer;
    bool writer_frozen = false;
    bool fault = false;
    std::uint64_t crc_mismatches = 0;  ///< rule (c) quarantine count
    /// Bumped on freeze/reintegrate; scheduled writer wake-ups check it so a
    /// stale event never resumes a coroutine destroyed by a restart.
    std::uint64_t epoch = 0;
    WriteTamper tamper;
    std::optional<DetectionRecord> detection;
    std::optional<kpn::FifoChannel::LinkModel> link;
  };

  class WriteInterface final : public kpn::TokenSink {
   public:
    WriteInterface(SelectorChannel& owner, ReplicaIndex replica)
        : owner_(owner), replica_(replica) {}
    [[nodiscard]] bool try_write(const kpn::Token& token) override {
      return owner_.side_try_write(replica_, token);
    }
    void await_writable(std::coroutine_handle<> writer) override {
      owner_.side_await_writable(replica_, writer);
    }
    [[nodiscard]] std::string sink_name() const override {
      return owner_.name_ + "." + to_string(replica_);
    }

   private:
    SelectorChannel& owner_;
    ReplicaIndex replica_;
  };

  /// One side's member of a duplicate group awaiting its vote.
  struct GroupArrival {
    ReplicaIndex replica = ReplicaIndex::kReplica1;
    kpn::Token token;
  };

  [[nodiscard]] Side& side_at(ReplicaIndex r) {
    return sides_[static_cast<std::size_t>(index_of(r))];
  }
  [[nodiscard]] const Side& side_at(ReplicaIndex r) const {
    return sides_[static_cast<std::size_t>(index_of(r))];
  }
  /// The most advanced peer of side i by received count, preferring peers
  /// whose counters are not awaiting a post-recovery resync.
  [[nodiscard]] const Side& resync_anchor(std::size_t i) const;
  /// The healthy, non-resyncing peer of side i with the highest received
  /// count: the owner of the delivered frontier a rejoining side must meet.
  [[nodiscard]] const Side* frontier_leader(std::size_t i) const;
  [[nodiscard]] bool side_try_write(ReplicaIndex r, const kpn::Token& token);
  void side_await_writable(ReplicaIndex r, std::coroutine_handle<> writer);
  void declare_fault(ReplicaIndex r, DetectionRule rule);
  void check_divergence();
  /// Enqueues `token` (from `origin`) for the consumer at `available_at`.
  void deliver(const kpn::Token& token, ReplicaIndex origin, rtc::TimeNs available_at);
  void wake_reader(rtc::TimeNs when);
  void wake_writers();
  [[nodiscard]] bool frontier_hold_active(std::size_t i) const;
  /// Vote mode: records side `r`'s member of duplicate group `group`.
  void note_vote_arrival(ReplicaIndex r, std::uint64_t group, const kpn::Token& token);
  /// Vote mode: resolves pending groups starting at next_resolve_group_ for
  /// as long as a verdict (majority or all-live-reported) is available.
  void resolve_ready_groups();
  /// Vote mode: delivers a group's chosen member behind the seq-monotone
  /// guard and drops the rest.
  void deliver_group(const GroupArrival& chosen, std::size_t members);

  sim::Simulator& sim_;
  std::string name_;
  trace::SubjectId subject_;
  bool reconfiguring_ = false;
  /// Sized once at construction and never resized: the scrub set, the write
  /// interfaces and scheduled wakes hold references into them.
  std::vector<Side> sides_;
  std::vector<WriteInterface> write_interfaces_;
  std::deque<Slot> queue_;
  rtc::Tokens pending_preload_ = 0;  ///< preloaded tokens not yet consumed
  /// Highest sequence number ever enqueued for delivery (-1 before the
  /// first). Guards the strictly-increasing delivered stream when NoC input
  /// loss skews the replicas' arrival counts (see side_try_write).
  Tmr<std::int64_t> last_enqueued_seq_ = -1;
  Tmr<rtc::Tokens> divergence_threshold_ = 0;
  bool enable_stall_rule_ = true;
  bool verify_checksums_ = true;
  int corruption_conviction_threshold_ = 3;
  bool enable_payload_vote_ = false;
  std::coroutine_handle<> waiting_reader_;
  kpn::ChannelStats stats_;
  ScrubSet scrub_set_;

  // --- vote-mode state (empty unless enable_payload_vote_) ---
  /// Buffered arrivals for groups >= next_resolve_group_, keyed by group.
  std::map<std::uint64_t, std::vector<GroupArrival>> pending_;
  /// Delivered fingerprint of majority-resolved groups, kept until every
  /// non-convicted side has passed the group (straggler cross-check).
  std::map<std::uint64_t, std::uint32_t> resolved_fp_;
  std::uint64_t next_resolve_group_ = 1;
  std::uint64_t vote_conflicts_ = 0;
  std::uint64_t votes_outvoted_ = 0;
  bool resolving_ = false;  ///< reentrancy guard: conviction inside a resolve
};

}  // namespace sccft::ft
