#include "ft/selector.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace sccft::ft {

namespace {

/// The count side i must carry so that a token with sequence `seq` is the
/// successor of `anchor`'s last counted token (KPN determinacy + FIFO order
/// make the k-th arrival on every interface token k).
std::uint64_t anchored_count(std::uint64_t anchor_received, std::uint64_t anchor_last_seq,
                             std::uint64_t seq) {
  const auto delta =
      static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(anchor_last_seq) - 1;
  const auto synced = static_cast<std::int64_t>(anchor_received) + delta;
  return synced > 0 ? static_cast<std::uint64_t>(synced) : 0;
}

}  // namespace

SelectorChannel::SelectorChannel(sim::Simulator& sim, std::string name, Config config)
    : sim_(sim),
      name_(std::move(name)),
      subject_(sim.trace().intern(name_)),
      sides_(config.capacities.size()),
      divergence_threshold_(config.divergence_threshold),
      enable_stall_rule_(config.enable_stall_rule),
      verify_checksums_(config.verify_checksums),
      corruption_conviction_threshold_(config.corruption_conviction_threshold),
      enable_payload_vote_(config.enable_payload_vote) {
  const std::size_t n = sides_.size();
  SCCFT_EXPECTS(n >= 2);
  SCCFT_EXPECTS(config.initials.empty() || config.initials.size() == n);
  SCCFT_EXPECTS(config.links.empty() || config.links.size() == n);
  SCCFT_EXPECTS(config.divergence_threshold >= 0);
  SCCFT_EXPECTS(config.corruption_conviction_threshold > 0);
  // Vote mode needs rule (b) as its backstop: a group blocked on a silent
  // side only resolves once that side is convicted, so the divergence rule
  // must be armed and every healthy leader must be able to out-write a
  // stalled laggard all the way to the D verdict without exhausting its own
  // space budget first.
  SCCFT_EXPECTS(!config.enable_payload_vote ||
                (config.divergence_threshold > 0 && config.links.empty()));
  write_interfaces_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const rtc::Tokens capacity = config.capacities[i];
    const rtc::Tokens initial = config.initials.empty() ? 0 : config.initials[i];
    SCCFT_EXPECTS(capacity > 0);
    SCCFT_EXPECTS(initial >= 0 && initial <= capacity);
    // The usable budget is capacity - initial (the Eq. (4) offset is burned
    // on the preloaded slots), and in vote mode it must cover a full D lead:
    // a group blocked on a silent peer stalls the consumer, so nothing
    // refills space until the rule (b) verdict lands.
    SCCFT_EXPECTS(!config.enable_payload_vote ||
                  capacity - initial > config.divergence_threshold);
    const auto r = static_cast<ReplicaIndex>(i);
    Side& side = sides_[i];
    side.capacity = capacity;
    side.space = capacity - initial;
    side.initial = initial;
    side.subject = sim.trace().intern(name_ + ".S" + std::to_string(i + 1));
    if (!config.links.empty()) side.link = config.links[i];
    write_interfaces_.emplace_back(*this, r);
  }
  // Scrubbable word order (stable, documented in the header): per side
  // {capacity, initial, space, virtual_fill, tokens_received, last_seq},
  // then the channel-level frontier and divergence threshold.
  for (Side& side : sides_) {
    scrub_set_.add(side.capacity);
    scrub_set_.add(side.initial);
    scrub_set_.add(side.space);
    scrub_set_.add(side.virtual_fill);
    scrub_set_.add(side.tokens_received);
    scrub_set_.add(side.last_seq);
  }
  scrub_set_.add(last_enqueued_seq_);
  scrub_set_.add(divergence_threshold_);
}

kpn::TokenSink& SelectorChannel::write_interface(ReplicaIndex r) {
  return write_interfaces_[static_cast<std::size_t>(index_of(r))];
}

int SelectorChannel::healthy_count() const {
  return static_cast<int>(std::count_if(sides_.begin(), sides_.end(),
                                        [](const Side& s) { return !s.fault; }));
}

void SelectorChannel::preload_initial_tokens(const kpn::Token& token) {
  SCCFT_EXPECTS(queue_.empty());
  pending_preload_ = 0;
  for (const Side& side : sides_) {
    pending_preload_ = std::max<rtc::Tokens>(pending_preload_, side.capacity - side.space);
  }
  for (rtc::Tokens i = 0; i < pending_preload_; ++i) {
    queue_.push_back(Slot{token, sim_.now(), std::nullopt});
  }
}

const SelectorChannel::Side& SelectorChannel::resync_anchor(std::size_t i) const {
  const Side* anchor = nullptr;
  for (std::size_t j = 0; j < sides_.size(); ++j) {
    if (j == i) continue;
    const Side& candidate = sides_[j];
    const bool better =
        anchor == nullptr ||
        (anchor->resync_pending && !candidate.resync_pending) ||
        (anchor->resync_pending == candidate.resync_pending &&
         candidate.tokens_received > anchor->tokens_received);
    if (better) anchor = &candidate;
  }
  return *anchor;  // N >= 2: side i always has a peer
}

const SelectorChannel::Side* SelectorChannel::frontier_leader(std::size_t i) const {
  const Side* leader = nullptr;
  for (std::size_t j = 0; j < sides_.size(); ++j) {
    if (j == i) continue;
    const Side& candidate = sides_[j];
    if (candidate.fault || candidate.resync_pending) continue;
    if (leader == nullptr || candidate.tokens_received > leader->tokens_received) {
      leader = &candidate;
    }
  }
  return leader;
}

bool SelectorChannel::side_try_write(ReplicaIndex r, const kpn::Token& token) {
  const auto i = static_cast<std::size_t>(index_of(r));
  Side& side = sides_[i];

  if (side.fault || side.writer_frozen) {
    // A replica already declared faulty (or halted by fault injection) can
    // neither block nor corrupt the stream: its writes are accepted and
    // discarded.
    ++stats_.tokens_dropped;
    sim_.trace().emit(trace::EventKind::kTokenDrop, side.subject, sim_.now(),
                      static_cast<std::int64_t>(token.seq()));
    return true;
  }
  if (side.space == 0) {
    // Rule 3: the writer blocks. Lemma 1: this depends only on space_i.
    ++stats_.writer_blocks;
    SCCFT_TRACE(sim_.trace(), trace::EventKind::kWriterBlock, side.subject, sim_.now(),
                static_cast<std::int64_t>(token.seq()));
    return false;
  }

  // Fault-injection tamper (models corruption in the replica's core or on
  // its output link), then detection rule (c): verify the arriving token's
  // CRC-32. A mismatch is quarantined — the write succeeds from the
  // replica's view and consumes its space slot (Lemma 1: only space_i is
  // touched, and rule (a) stays quiet for a replica that is producing on
  // schedule), but the received count does NOT advance. A peer's healthy
  // copy of the same group is therefore delivered as first-of-group, the
  // consumer never sees the corrupted payload, and a persistently corrupting
  // replica also drifts toward the rule (b) divergence threshold.
  const kpn::Token* arriving = &token;
  kpn::Token tampered;
  if (side.tamper) {
    tampered = side.tamper(token);
    arriving = &tampered;
  }
  if (verify_checksums_ && arriving->valid() && !arriving->verify_checksum()) {
    ++side.crc_mismatches;
    ++stats_.tokens_dropped;
    side.space -= 1;
    if (!enable_payload_vote_) side.count_resync_pending = true;
    sim_.trace().emit(trace::EventKind::kQuarantine, subject_, sim_.now(), index_of(r),
                      static_cast<std::int64_t>(side.crc_mismatches));
    if (side.crc_mismatches >=
        static_cast<std::uint64_t>(corruption_conviction_threshold_)) {
      // Unlike (a)/(b), a CRC mismatch is direct evidence against replica i
      // regardless of the peers' state.
      declare_fault(r, DetectionRule::kSelectorCorruption);
    }
    return true;
  }

  if (side.resync_pending) {
    // Reconfiguration window: the re-anchor below reads the peers' counters
    // and the capacity words, which a resize is about to rewrite. Defer the
    // rejoin across the window through the same hold machinery as the
    // frontier hold — end_reconfiguration() wakes the writer and the retry
    // re-anchors against settled state.
    if (reconfiguring_) {
      side.held_seq = token.seq();
      ++stats_.writer_blocks;
      return false;
    }
    // A rejoining replica may only re-enter AT the delivered frontier. If its
    // first token is ahead of the frontier leader's last_seq + 1, the missing
    // sequence numbers exist solely in the peers' pipelines (e.g. a peer is
    // mid-burst of a transient fault); enqueueing now would deliver the
    // future before the past and turn the peers' copies into dropped "late
    // duplicates" — a permanent gap. Hold the write until the leader catches
    // up; conviction of the leader lifts the hold (the stream then has a
    // genuine gap no ordering can repair, and this side must flow to keep
    // the consumer alive). A peer that is itself resync-pending has
    // pre-fault counters and no claim on the frontier (holding against it
    // can deadlock two rejoining writers); the first to write re-anchors.
    const Side* leader = frontier_leader(i);
    if (leader != nullptr && leader->tokens_received > 0 &&
        token.seq() > leader->last_seq + 1) {
      side.held_seq = token.seq();
      ++stats_.writer_blocks;
      return false;
    }
    // Recovery: align this side's counter with the most advanced peer using
    // sequence numbers, so duplicate-group identity stays exact despite the
    // tokens this replica missed while down. After this, token.seq ==
    // anchor.last_seq + 1 is fresh; anything at or below it is a late
    // duplicate. The space counter is re-anchored here too: the reads that
    // happened while the replica refilled its pipeline must not count
    // against its stall budget.
    side.resync_pending = false;
    side.count_resync_pending = false;
    side.space = side.capacity - side.initial;
    const Side& anchor = resync_anchor(i);
    if (anchor.tokens_received > 0) {
      side.tokens_received =
          anchored_count(anchor.tokens_received, anchor.last_seq, token.seq());
    }
  } else if (side.count_resync_pending) {
    // Quarantined tokens were arrivals that never counted as received; this
    // healthy token's sequence number restores the exact group alignment
    // (same formula as post-recovery resync, but the space counter — which
    // tracked every arrival, quarantined or not — is left alone).
    const Side& anchor = resync_anchor(i);
    if (anchor.tokens_received > 0) {
      side.count_resync_pending = false;
      side.tokens_received =
          anchored_count(anchor.tokens_received, anchor.last_seq, token.seq());
    }
  }

  // First-of-group test: interface i's k-th token is the first of group k
  // iff no peer has delivered k tokens yet (KPN determinacy + FIFO order make
  // the k-th arrival token k). The paper states this for N = 2 as
  // "space_i <= space_j", which equals the received-count comparison exactly
  // when both interfaces start with the same free space; with per-replica
  // capacities and initial fills (|S_1|-|S_1|_0 != |S_2|-|S_2|_0 for both
  // paper applications) the raw space comparison is biased by the constant
  // offset and drops one healthy token at failover.
  //
  // Seq-monotone safety net. The count comparison assumes every replica saw
  // the same input stream; NoC loss on a producer->replica link starves one
  // replica, skews the arrival counts, and can make two copies of one
  // sequence number test fresh. The delivered stream must stay strictly
  // increasing no matter what, so nothing at or below the enqueued frontier
  // is ever delivered twice — the late copy is dropped like any duplicate
  // (the count still advances, which is what rules (a)/(b) reason about).
  //
  // Vote mode replaces this test: groups resolve by payload vote instead.
  bool first_of_group = false;
  if (!enable_payload_vote_) {
    std::uint64_t best_peer = 0;
    for (std::size_t j = 0; j < sides_.size(); ++j) {
      if (j != i) best_peer = std::max<std::uint64_t>(best_peer, sides_[j].tokens_received);
    }
    first_of_group = side.tokens_received + 1 > best_peer &&
                     static_cast<std::int64_t>(token.seq()) > last_enqueued_seq_;
  }
  side.space -= 1;

  rtc::TimeNs available_at = sim_.now();
  if (first_of_group && side.link) {
    const auto outcome = side.link->noc->transfer_ex(
        side.link->src, side.link->dst, arriving->size_bytes(), sim_.now());
    if (!outcome.delivered) {
      // NoC fault exhausted its retransmission budget: the first-of-group
      // copy is lost in transit. Handled like a quarantine — the received
      // count does not advance, so a peer's healthy copy of the same group
      // is delivered instead: redundant execution masks link loss.
      side.count_resync_pending = true;
      ++stats_.tokens_written;
      ++stats_.tokens_dropped;
      sim_.trace().emit(trace::EventKind::kTokenDrop, side.subject, sim_.now(),
                        static_cast<std::int64_t>(token.seq()));
      check_divergence();
      return true;
    }
    available_at = outcome.arrival;
  }

  side.tokens_received += 1;
  side.last_seq = token.seq();
  ++stats_.tokens_written;

  if (enable_payload_vote_) {
    // Interface i's k-th counted token is its member of duplicate group k.
    note_vote_arrival(r, side.tokens_received, *arriving);
  } else if (first_of_group) {
    deliver(*arriving, r, available_at);
  } else {
    // Late duplicate of a token a peer already delivered: dropped.
    ++stats_.tokens_dropped;
    sim_.trace().emit(trace::EventKind::kTokenDrop, side.subject, sim_.now(),
                      static_cast<std::int64_t>(token.seq()));
  }
  // Always-on: the virtual fill/space levels drive the per-side VCD signals
  // (space_i is what rules (a)/(b) reason about, so it belongs on waveforms
  // even in compiled-out builds).
  sim_.trace().emit(trace::EventKind::kQueueLevel, side.subject, sim_.now(),
                    static_cast<std::int64_t>(side.virtual_fill),
                    static_cast<std::int64_t>(side.space));

  check_divergence();
  // This delivery advanced the frontier; a peer writer held at its rejoin
  // point may now be able to proceed.
  for (const Side& peer : sides_) {
    if (peer.resync_pending && peer.waiting_writer) {
      wake_writers();
      break;
    }
  }
  return true;
}

void SelectorChannel::deliver(const kpn::Token& token, ReplicaIndex origin,
                              rtc::TimeNs available_at) {
  queue_.push_back(Slot{token, available_at, origin});
  last_enqueued_seq_ = static_cast<std::int64_t>(token.seq());
  Side& side = side_at(origin);
  side.virtual_fill += 1;
  side.max_virtual_fill =
      std::max(side.max_virtual_fill, static_cast<rtc::Tokens>(side.virtual_fill));
  stats_.max_fill = std::max(stats_.max_fill, fill() - pending_preload_);
  // Always-on: VCD fill waveforms derive from enqueue/dequeue events.
  sim_.trace().emit(trace::EventKind::kEnqueue, subject_, sim_.now(),
                    static_cast<std::int64_t>(token.seq()),
                    static_cast<std::int64_t>(fill()));
  if (waiting_reader_) wake_reader(available_at);
}

void SelectorChannel::freeze_writer(ReplicaIndex r) {
  side_at(r).writer_frozen = true;
  // A parked writer's handle is RETAINED: a transient fault must resume it
  // (via unfreeze_writer) with its in-flight token intact. Only reintegrate
  // — the restart path, after which the handle dangles — discards it and
  // bumps the epoch; an in-flight wake that fires mid-freeze re-parks the
  // handle instead.
}

void SelectorChannel::unfreeze_writer(ReplicaIndex r) {
  Side& side = side_at(r);
  if (!side.writer_frozen) return;
  side.writer_frozen = false;
  // Route through wake_writers: a writer that parked at the rejoin frontier
  // hold BEFORE the freeze landed must stay parked until the hold lifts, and
  // the wake needs the epoch guard in case a restart supersedes this thaw.
  wake_writers();
}

void SelectorChannel::set_write_tamper(ReplicaIndex r, WriteTamper tamper) {
  side_at(r).tamper = std::move(tamper);
}

void SelectorChannel::reintegrate(ReplicaIndex r) {
  // Vote mode has no restart path: a rejoining side's group numbering would
  // be ambiguous against buffered ballots (documented in Config).
  SCCFT_EXPECTS(!enable_payload_vote_);
  Side& side = side_at(r);
  side.fault = false;
  side.detection.reset();
  side.writer_frozen = false;
  side.waiting_writer = nullptr;  // restart destroyed the old coroutine frame
  ++side.epoch;                   // invalidate any wake already scheduled
  side.space = side.capacity - side.initial;
  side.virtual_fill = 0;
  side.crc_mismatches = 0;
  side.resync_pending = true;
  side.count_resync_pending = false;
  // Always-on repair boundary: together with the replicator's kReintegrate
  // this brackets recover_replica in flight-recorder dumps, so a post-mortem
  // can see exactly when a replica was re-admitted (and the chaos oracles
  // can correlate convictions with repairs).
  sim_.trace().emit(trace::EventKind::kReintegrate, subject_, sim_.now(), index_of(r));
}

void SelectorChannel::side_await_writable(ReplicaIndex r, std::coroutine_handle<> writer) {
  Side& side = side_at(r);
  SCCFT_EXPECTS(!side.waiting_writer);
  side.waiting_writer = writer;
}

std::optional<kpn::Token> SelectorChannel::try_read() {
  if (queue_.empty()) return std::nullopt;
  if (queue_.front().available_at > sim_.now()) return std::nullopt;
  Slot slot = std::move(queue_.front());
  queue_.pop_front();
  ++stats_.tokens_read;
  sim_.trace().emit(trace::EventKind::kDequeue, subject_, sim_.now(),
                    static_cast<std::int64_t>(slot.token.valid() ? slot.token.seq() : 0),
                    static_cast<std::int64_t>(fill()));

  // Rule 2: a read increments ALL space variables and decrements fill.
  for (Side& side : sides_) side.space += 1;
  if (slot.origin) {
    Side& origin = side_at(*slot.origin);
    SCCFT_ASSERT(origin.virtual_fill > 0);
    origin.virtual_fill -= 1;
  } else {
    SCCFT_ASSERT(pending_preload_ > 0);
    pending_preload_ -= 1;
  }

  // Detection rule (a): replica i is faulty once space_i exceeds |S_i|, as
  // long as a healthy peer would remain. A side awaiting its post-recovery
  // resync is immune: its counters refer to the pre-fault epoch until its
  // first write re-anchors them.
  if (enable_stall_rule_) {
    for (std::size_t i = 0; i < sides_.size(); ++i) {
      const Side& side = sides_[i];
      if (!side.fault && !side.resync_pending && side.space > side.capacity &&
          healthy_count() > 1) {
        declare_fault(static_cast<ReplicaIndex>(i), DetectionRule::kSelectorStall);
      }
    }
  }

  for (const Side& side : sides_) {
    sim_.trace().emit(trace::EventKind::kQueueLevel, side.subject, sim_.now(),
                      static_cast<std::int64_t>(side.virtual_fill),
                      static_cast<std::int64_t>(side.space));
  }

  wake_writers();
  return std::move(slot.token);
}

void SelectorChannel::await_readable(std::coroutine_handle<> reader) {
  SCCFT_EXPECTS(!waiting_reader_);
  waiting_reader_ = reader;
  ++stats_.reader_blocks;
  SCCFT_TRACE(sim_.trace(), trace::EventKind::kReaderBlock, subject_, sim_.now());
  if (!queue_.empty()) {
    wake_reader(std::max(queue_.front().available_at, sim_.now()));
  }
}

void SelectorChannel::declare_fault(ReplicaIndex r, DetectionRule rule) {
  Side& side = side_at(r);
  SCCFT_ASSERT(!side.fault);
  side.fault = true;
  side.detection = DetectionRecord{r, rule, sim_.now()};
  // The verdict travels the bus; detection logs and supervisors subscribe.
  sim_.trace().emit(trace::EventKind::kDetection, subject_, sim_.now(), index_of(r),
                    static_cast<std::int64_t>(rule));
  // If the (now-faulty) replica is blocked on this interface, release it so a
  // zombie replica cannot wedge; its retried write will be accepted-and-
  // dropped via the fault path. Frozen writers stay parked (they resume via
  // unfreeze or die via restart), and the wake checks the epoch so it cannot
  // touch a coroutine a restart destroyed in the meantime. This also releases
  // a peer writer held at its rejoin frontier: with this side convicted, the
  // hold no longer applies.
  wake_writers();
  // A conviction shrinks the electorate, which can hand a stalled group its
  // majority (or its all-live-reported verdict).
  if (enable_payload_vote_) resolve_ready_groups();
}

void SelectorChannel::note_vote_arrival(ReplicaIndex r, std::uint64_t group,
                                        const kpn::Token& token) {
  if (group < next_resolve_group_) {
    // Straggler into an already-resolved group: the duplicate is dropped, but
    // if the group had a majority verdict a differing fingerprint is direct
    // evidence against this side.
    ++stats_.tokens_dropped;
    const auto it = resolved_fp_.find(group);
    if (it != resolved_fp_.end() && token.checksum() != it->second) {
      ++votes_outvoted_;
      if (!side_at(r).fault) declare_fault(r, DetectionRule::kSelectorVote);
    }
  } else {
    pending_[group].push_back(GroupArrival{r, token});
    resolve_ready_groups();
  }
  // Prune verdicts every non-convicted side has passed: the maps stay
  // bounded by the inter-replica skew (at most a capacity + D).
  std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
  for (const Side& side : sides_) {
    if (!side.fault) floor = std::min<std::uint64_t>(floor, side.tokens_received);
  }
  if (floor != std::numeric_limits<std::uint64_t>::max()) {
    resolved_fp_.erase(resolved_fp_.begin(), resolved_fp_.upper_bound(floor));
  }
}

void SelectorChannel::deliver_group(const GroupArrival& chosen, std::size_t members) {
  // Seq-monotone safety net (see side_try_write): groups resolve in order,
  // so this only rejects pathological replays below the delivered frontier.
  if (static_cast<std::int64_t>(chosen.token.seq()) <= last_enqueued_seq_) {
    ++stats_.tokens_dropped;
  } else {
    deliver(chosen.token, chosen.replica, sim_.now());
  }
  stats_.tokens_dropped += members - 1;  // non-delivered members
}

void SelectorChannel::resolve_ready_groups() {
  if (resolving_) return;  // conviction mid-resolve re-enters via declare_fault
  resolving_ = true;
  const auto convicted = [this](const GroupArrival& a) { return side_at(a.replica).fault; };
  while (true) {
    const auto it = pending_.find(next_resolve_group_);
    if (it == pending_.end()) break;
    std::vector<GroupArrival>& arrivals = it->second;
    const int live = healthy_count();
    const int majority = live / 2 + 1;

    // Earliest arrival whose fingerprint a strict majority of the live
    // electorate agrees with (arrival order is deterministic simulation
    // order, so the tie-break is too).
    const GroupArrival* winner = nullptr;
    for (const GroupArrival& a : arrivals) {
      if (convicted(a)) continue;
      const auto agree = std::count_if(
          arrivals.begin(), arrivals.end(), [&](const GroupArrival& b) {
            return !convicted(b) && b.token.checksum() == a.token.checksum();
          });
      if (agree >= majority) {
        winner = &a;
        break;
      }
    }
    if (winner != nullptr) {
      const std::uint32_t fp = winner->token.checksum();
      deliver_group(*winner, arrivals.size());
      resolved_fp_[next_resolve_group_] = fp;
      // Dissenters lost to a strict majority: direct evidence, rule (vote).
      for (const GroupArrival& a : arrivals) {
        if (convicted(a) || a.token.checksum() == fp) continue;
        ++votes_outvoted_;
        declare_fault(a.replica, DetectionRule::kSelectorVote);
      }
      pending_.erase(it);
      ++next_resolve_group_;
      continue;
    }

    const auto reported = std::count_if(arrivals.begin(), arrivals.end(),
                                        [&](const GroupArrival& a) { return !convicted(a); });
    if (!arrivals.empty() && reported >= live) {
      // Every live side has reported and no strict majority exists (N=2
      // against a silent corrupter): deliver the first arrival and count the
      // conflict — detection without masking. No verdict is recorded, so
      // stragglers (there are none live) cannot be convicted off it.
      ++vote_conflicts_;
      deliver_group(arrivals.front(), arrivals.size());
      pending_.erase(it);
      ++next_resolve_group_;
      continue;
    }
    break;  // wait for more arrivals or a conviction
  }
  resolving_ = false;
}

void SelectorChannel::begin_reconfiguration() {
  SCCFT_EXPECTS(!reconfiguring_);
  reconfiguring_ = true;
}

void SelectorChannel::end_reconfiguration() {
  SCCFT_EXPECTS(reconfiguring_);
  reconfiguring_ = false;
  // Deferred detection: a divergence that deepened past the (possibly new)
  // threshold during the window is convicted now. The set_divergence_threshold
  // clamp guarantees the resize alone never triggers this — only genuine
  // drift accumulated inside the window can.
  check_divergence();
  wake_writers();
}

rtc::Tokens SelectorChannel::set_divergence_threshold(rtc::Tokens requested) {
  SCCFT_EXPECTS(requested >= 0);
  rtc::Tokens applied = requested;
  if (requested > 0) {
    // No retroactive conviction: a narrowing stops one token above the
    // current spread, so the divergence must genuinely deepen after the
    // resize before rule (b) can fire.
    const auto [lo, hi] = std::minmax_element(
        sides_.begin(), sides_.end(), [](const Side& a, const Side& b) {
          return a.tokens_received < b.tokens_received;
        });
    const auto spread = static_cast<rtc::Tokens>(hi->tokens_received - lo->tokens_received);
    applied = std::max(requested, spread + 1);
  }
  divergence_threshold_ = applied;
  return applied;
}

void SelectorChannel::check_divergence() {
  if (reconfiguring_) return;  // deferred to end_reconfiguration()
  if (divergence_threshold_ <= 0) return;
  // A resyncing side's received count is pre-fault-epoch noise: it neither
  // defines the leader nor can be convicted until its first write
  // re-anchors it (recovery grace).
  std::uint64_t best = 0;
  for (const Side& side : sides_) {
    if (!side.fault && !side.resync_pending) {
      best = std::max<std::uint64_t>(best, side.tokens_received);
    }
  }
  const auto threshold = static_cast<std::uint64_t>(divergence_threshold_);
  for (std::size_t i = 0; i < sides_.size(); ++i) {
    const Side& side = sides_[i];
    if (side.fault || side.resync_pending) continue;
    // Never convict the last healthy replica.
    if (best >= side.tokens_received + threshold && healthy_count() > 1) {
      declare_fault(static_cast<ReplicaIndex>(i), DetectionRule::kSelectorDivergence);
    }
  }
}

void SelectorChannel::publish_metrics(trace::MetricsRegistry& registry) const {
  for (std::size_t i = 0; i < sides_.size(); ++i) {
    const Side& side = sides_[i];
    const std::string prefix = name_ + ".S" + std::to_string(i + 1);
    registry.gauge_max(prefix + ".max_observed_fill",
                       static_cast<std::int64_t>(side.max_virtual_fill));
    registry.add(prefix + ".tokens_received", side.tokens_received);
    registry.add(prefix + ".crc_mismatches", side.crc_mismatches);
  }
  registry.gauge_max(name_ + ".max_fill",
                     static_cast<std::int64_t>(stats_.max_fill));
  registry.add(name_ + ".tokens_written", stats_.tokens_written);
  registry.add(name_ + ".tokens_read", stats_.tokens_read);
  registry.add(name_ + ".tokens_dropped", stats_.tokens_dropped);
  registry.add(name_ + ".writer_blocks", stats_.writer_blocks);
  registry.add(name_ + ".reader_blocks", stats_.reader_blocks);
  registry.gauge_max(name_ + ".control_bytes",
                     static_cast<std::int64_t>(control_memory_bytes()));
}

std::size_t SelectorChannel::control_memory_bytes() const {
  return sizeof(SelectorChannel) +
         sides_.size() * (sizeof(Side) + sizeof(WriteInterface));
}

void SelectorChannel::wake_reader(rtc::TimeNs when) {
  if (!waiting_reader_) return;
  auto reader = waiting_reader_;
  waiting_reader_ = nullptr;
  sim_.schedule_at(std::max(when, sim_.now()), [reader] { reader.resume(); });
}

bool SelectorChannel::frontier_hold_active(std::size_t i) const {
  const Side& side = sides_[i];
  if (!side.resync_pending) return false;
  // Rejoin re-anchoring is deferred across a reconfiguration window (see
  // begin_reconfiguration); the hold lifts when the window closes.
  if (reconfiguring_) return true;
  const Side* leader = frontier_leader(i);
  return leader != nullptr && leader->tokens_received > 0 &&
         side.held_seq > leader->last_seq + 1;
}

void SelectorChannel::wake_writers() {
  for (std::size_t i = 0; i < sides_.size(); ++i) {
    Side& side = sides_[i];
    // A writer refused by the rejoin frontier hold is only resumed once the
    // hold has lifted (the leader's frontier reached held_seq - 1, or the
    // leader was convicted); waking it earlier would make its try_write retry
    // fail, which the kpn WriteAwaiter treats as a contract violation.
    if (side.waiting_writer && !side.writer_frozen &&
        (side.space > 0 || side.fault) && !frontier_hold_active(i)) {
      auto writer = side.waiting_writer;
      side.waiting_writer = nullptr;
      // The epoch guard drops the wake if a restart invalidated the handle;
      // if a freeze or a re-armed frontier hold lands between scheduling and
      // firing, the handle is re-parked instead of resumed so the token
      // survives the fault.
      sim_.schedule_after(0, [this, &side, i, writer, epoch = side.epoch] {
        if (side.epoch != epoch) return;
        if (side.writer_frozen || frontier_hold_active(i)) {
          side.waiting_writer = writer;
          return;
        }
        writer.resume();
      });
    }
  }
}

}  // namespace sccft::ft
