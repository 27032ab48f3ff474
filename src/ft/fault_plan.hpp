// Fault taxonomy and multi-fault campaigns (extension beyond the paper).
//
// The paper's fault hypothesis (Section 2) covers a single *permanent* timing
// fault. Real silicon — and the SCC in particular, whose cores the authors
// note are operated near threshold voltage — also exhibits:
//
//   * transient silence   — a core halts (SEU, watchdog reset) and comes back
//                           by itself after a bounded outage;
//   * intermittent bursts — a marginal core alternates between healthy and
//                           silent phases on a random on/off schedule;
//   * payload corruption  — a token's bytes are altered after production
//                           (bit flip in a register file, MPB or link), which
//                           the timing-only rules (a)/(b) cannot see but the
//                           CRC rule (c) convicts;
//   * NoC link faults     — chunks of a message are dropped or delayed in
//                           the mesh; the sender retransmits after a timeout,
//                           bounded by an attempt budget (scc/noc.hpp).
//
// Beyond the data path, the *protection machinery itself* can fail — the
// control plane runs on the same near-threshold cores as the replicas:
//
//   * supervisor hang     — the supervisor core wedges: detections are
//                           swallowed, scheduled restarts never fire, the
//                           heartbeat stops. Only the per-tile hardware
//                           watchdog (scc/watchdog.hpp) can recover it.
//   * counter corruption  — a bit flip lands in channel bookkeeping (space
//                           counters, sequence frontiers). TMR shadow copies
//                           plus the periodic scrubber (ft/scrub.hpp) absorb
//                           it; without scrubbing, flips accumulate until
//                           the majority vote fails.
//   * trace sink stuck    — the flight recorder stops draining (hung DMA);
//                           the scrubber's ring audit force-resyncs it.
//
// FaultCampaign schedules any number of such faults against a running
// duplicated network, lifting the single-shot restriction of FaultInjector.
// Every stochastic choice (burst lengths, corrupted bit positions, drop
// decisions) is driven by explicitly seeded xoshiro256** streams, so each
// campaign is bit-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ft/replicator.hpp"
#include "ft/scrub.hpp"
#include "ft/selector.hpp"
#include "kpn/process.hpp"
#include "rtc/time.hpp"
#include "scc/noc.hpp"
#include "sim/simulator.hpp"
#include "trace/bus.hpp"
#include "util/record.hpp"
#include "util/rng.hpp"

namespace sccft::trace {
class RingBufferSink;
}  // namespace sccft::trace

namespace sccft::ft {

class Supervisor;

enum class FaultKind {
  kPermanentSilence,    ///< paper's model: the replica halts forever
  kTransientSilence,    ///< halt for `duration`, then self-resume
  kIntermittentSilence, ///< random on/off silence bursts within a window
  kRateDegradation,     ///< compute times inflate by `rate_factor`
  kPayloadCorruption,   ///< output tokens get post-CRC bit flips
  kSilentCorruption,    ///< pre-CRC bit flips: the checksum is re-stamped over
                        ///< the corrupted bytes (SDC in the producing core),
                        ///< so rule (c) is blind and only a replica vote or
                        ///< golden comparison can see it
  kNocLink,             ///< mesh chunks dropped/delayed within a window
  // Control-plane faults: the targets are the protection machinery, not the
  // replicated data path. `replica` is ignored; `tile` locates the victim.
  kSupervisorHang,      ///< supervisor core wedges for `duration` (0 = forever)
  kCounterCorruption,   ///< periodic bit flips into TMR'd channel bookkeeping
  kTraceSinkStuck,      ///< flight-recorder ring stops draining for `duration`
};

[[nodiscard]] std::string to_string(FaultKind kind);

/// True for the kinds that attack the protection machinery rather than a
/// replica. Control-plane faults have no data-path victim: lossless-plan
/// classification and conviction-justification oracles skip them.
[[nodiscard]] constexpr bool is_control_plane(FaultKind kind) {
  return kind == FaultKind::kSupervisorHang ||
         kind == FaultKind::kCounterCorruption ||
         kind == FaultKind::kTraceSinkStuck;
}

/// Parses a to_string(FaultKind) tag. Throws util::ContractViolation on an
/// unknown tag.
[[nodiscard]] FaultKind fault_kind_from_text(const std::string& tag);

/// One fault to inject. Which fields matter depends on `kind`; unused fields
/// are ignored. All times are absolute simulated times.
struct FaultSpec {
  FaultKind kind = FaultKind::kPermanentSilence;
  ReplicaIndex replica = ReplicaIndex::kReplica1;  ///< victim (ignored for kNocLink)
  rtc::TimeNs at = 0;        ///< injection instant
  /// Fault lifetime. Required (> 0) for kTransientSilence and
  /// kIntermittentSilence; optional for kRateDegradation and
  /// kPayloadCorruption (0 = lasts until the end of the run).
  rtc::TimeNs duration = 0;
  double rate_factor = 4.0;          ///< kRateDegradation slowdown (> 1)
  double corrupt_probability = 1.0;  ///< kPayloadCorruption per-token chance
  rtc::TimeNs burst_on_mean = 0;     ///< kIntermittentSilence mean silent phase
  rtc::TimeNs burst_off_mean = 0;    ///< kIntermittentSilence mean healthy phase
  std::uint64_t seed = 1;            ///< per-spec deterministic RNG stream
  scc::NocFaultPlan noc;             ///< kNocLink parameters (window set from at/duration)
  /// Victim tile for control-plane kinds (informational for kSupervisorHang /
  /// kTraceSinkStuck; ignored by data-path kinds). For kCounterCorruption the
  /// flip schedule reuses existing fields: flips repeat every `burst_on_mean`
  /// ns while inside [at, at+duration) (single flip if either is 0), and
  /// `burst_off_mean` > 0 pins every flip to global scrub word index
  /// `burst_off_mean - 1` (0 = a fresh RNG-chosen word per flip).
  int tile = 0;
  /// N-replica victim selector: 0 (default) derives the victim from
  /// `replica` (the 2-replica encoding); k >= 1 targets replica index k-1 of
  /// a wiring with at least k replicas. Serialized as a trailing token only
  /// when nonzero, so 2-replica plans keep their historical byte layout.
  int victim = 0;
};

/// The 0-based data-path victim index of a spec, honouring the N-replica
/// `victim` override and falling back to the 2-replica `replica` field.
[[nodiscard]] constexpr int victim_index(const FaultSpec& spec) {
  return spec.victim > 0 ? spec.victim - 1 : index_of(spec.replica);
}

// ---------------------------------------------------------------------------
// Text serialization — the chaos artifact / replay format (src/chaos).
//
// One util/record.hpp line per fault, whitespace-separated:
//
//   fault <kind> <replica:1|2> <at_ns> <duration_ns> <rate_factor>
//         <corrupt_probability> <burst_on_ns> <burst_off_ns> <seed>
//         <noc_drop_p> <noc_delay_p> <noc_delay_min_ns> <noc_delay_max_ns>
//         <noc_max_retries> <noc_retry_timeout_ns> <tile> <victim>
//
// The trailing <tile> field is optional on parse (legacy 16-field lines get
// tile = 0), always emitted on serialize. The <victim> field after it is the
// N-replica victim selector: optional on parse (= 0), emitted only when
// nonzero so 2-replica plans keep their historical byte layout. Doubles are
// written as "%.17g".
//
// A plan is a sequence of such lines; blank lines and lines starting with '#'
// are ignored. Round-trip guarantee: parse(serialize(x)) == x field-by-field
// (the NoC window/seed are derived from at/duration/seed at arm() time and
// are deliberately not serialized).
// ---------------------------------------------------------------------------

/// Serializes one fault as a single "fault ..." line (no trailing newline).
[[nodiscard]] std::string serialize(const FaultSpec& spec);

/// Serializes a plan, one "fault ..." line per spec, trailing newline each.
[[nodiscard]] std::string serialize(const std::vector<FaultSpec>& plan);

/// Parses one "fault ..." line. Throws util::ContractViolation, naming the
/// field and its text, on malformed input: wrong tag, missing/extra/garbage
/// fields, out-of-range values, or a spec that FaultCampaign::add would
/// reject (e.g. a transient silence with zero duration) — never undefined
/// behaviour.
[[nodiscard]] FaultSpec parse_fault_spec(const std::string& line);

/// Parses a multi-line plan (blank lines and '#' comments skipped). Throws
/// util::ContractViolation on any malformed line or absurd line counts.
[[nodiscard]] std::vector<FaultSpec> parse_fault_plan(const std::string& text);

/// Reads plan lines after `in`'s current line (which must have no unread
/// field) up to the exact line `terminator`, which becomes the current line,
/// or to the end of the text when `terminator` is empty. For formats that
/// embed a plan as a section (chaos artifacts): errors name the line of the
/// enclosing text.
[[nodiscard]] std::vector<FaultSpec> read_fault_plan(util::RecordReader& in,
                                                     std::string_view terminator);

/// A recorded fault activation (one per permanent/transient/rate/corruption
/// injection; one per burst for intermittent faults).
struct FaultInjectionRecord {
  FaultKind kind = FaultKind::kPermanentSilence;
  ReplicaIndex replica = ReplicaIndex::kReplica1;  ///< victim (2-replica view)
  rtc::TimeNs at = 0;
  /// 0-based data-path victim index (meaningful beyond index 1 only for
  /// N-replica wirings; always equals victim_index of the originating spec).
  int victim = 0;
};

/// Schedules a set of FaultSpecs against one duplicated network. Unlike
/// FaultInjector (one permanent fault, matching the paper's hypothesis), a
/// campaign may carry any number of faults of any kind — the supervisor
/// (ft/supervisor.hpp) is what keeps the system live across them.
class FaultCampaign final {
 public:
  /// The campaign's handles into the system under test: one replicator/
  /// selector pair of any width N; data-path faults resolve their victim via
  /// victim_index(spec).
  struct Wiring {
    ReplicatorChannel* replicator = nullptr;
    SelectorChannel* selector = nullptr;
    /// Per-replica process lists (index i = replica i; size must match the
    /// channels' replica_count()). Silence and rate faults touch every
    /// process of the victim replica.
    std::vector<std::vector<kpn::Process*>> processes;
    scc::NocModel* noc = nullptr;  ///< required only for kNocLink specs
    /// Control-plane targets. Required only for the matching kinds:
    Supervisor* supervisor = nullptr;  ///< kSupervisorHang
    /// kCounterCorruption: global scrub word index spans these targets in
    /// order (word i of target t follows every word of targets 0..t-1).
    std::vector<Scrubbable*> scrubbables;
    trace::RingBufferSink* flight_ring = nullptr;  ///< kTraceSinkStuck
  };

  /// `subject_name` is the trace subject activations are emitted under —
  /// fleets give each stream's campaign a distinct name so supervisors can
  /// filter injections to their own stream (Supervisor::Config's
  /// injection_subject).
  FaultCampaign(sim::Simulator& sim, Wiring wiring,
                std::string subject_name = "fault-campaign");

  FaultCampaign(const FaultCampaign&) = delete;
  FaultCampaign& operator=(const FaultCampaign&) = delete;

  /// Subject under which activations appear on the trace bus (kInjection,
  /// a = FaultKind, b = victim replica index), at every fault activation and
  /// before its effects apply; subscribe to the bus to observe them.
  [[nodiscard]] trace::SubjectId trace_subject() const { return subject_; }

  /// Adds a fault to the campaign. Must be called before arm().
  void add(FaultSpec spec);

  /// Schedules every added fault. Call once, before or during the run.
  void arm();

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] const std::vector<FaultInjectionRecord>& injections() const {
    return injections_;
  }

 private:
  /// A spec plus its private RNG stream (stable storage: filled at arm()
  /// time and never resized afterwards, so scheduled events may hold
  /// references into it).
  struct ArmedSpec {
    FaultSpec spec;
    util::Xoshiro256 rng;
    explicit ArmedSpec(const FaultSpec& s) : spec(s), rng(s.seed) {}
  };

  void arm_spec(ArmedSpec& armed);
  void begin_silence(const FaultSpec& spec, rtc::TimeNs until);
  void end_silence(const FaultSpec& spec);
  void schedule_burst(ArmedSpec& armed, rtc::TimeNs at);
  void schedule_flip(ArmedSpec& armed, rtc::TimeNs at, int flip_index);
  void record(const FaultSpec& spec, rtc::TimeNs at);

  [[nodiscard]] std::vector<kpn::Process*>& victims(const FaultSpec& spec) {
    return wiring_.processes[static_cast<std::size_t>(victim_index(spec))];
  }

  sim::Simulator& sim_;
  Wiring wiring_;
  trace::SubjectId subject_;
  std::vector<FaultSpec> pending_;
  std::vector<ArmedSpec> armed_specs_;
  bool armed_ = false;
  std::vector<FaultInjectionRecord> injections_;
};

}  // namespace sccft::ft
