#include "vuln/profiler.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <utility>

#include "chaos/storm.hpp"
#include "ft/fault_plan.hpp"
#include "ft/framework.hpp"
#include "ft/stream.hpp"
#include "ft/supervisor.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"
#include "rtc/sizing.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace sccft::vuln {
namespace {

/// What one storm trial did, in user-visible terms.
struct TrialOutcome {
  int injections = 0;
  std::uint64_t delivered = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t divergences = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t detections = 0;
  std::optional<rtc::TimeNs> detection_latency;
};

/// Consumer-side scoring shared by both rigs: golden-value check after
/// the sensitivity mask, sequence continuity, and per-token deadlines
/// against the golden schedule anchor + seq * period.
struct Scorer {
  const ProcessSpec* spec = nullptr;
  std::uint64_t delivered = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t divergences = 0;
  std::uint64_t misses = 0;
  std::uint64_t next_seq = 0;
  bool saw_token = false;
  rtc::TimeNs anchor = 0;

  void score(const kpn::Token& token, rtc::TimeNs now) {
    ++delivered;
    if (saw_token && token.seq() != next_seq) ++divergences;
    next_seq = token.seq() + 1;

    if (spec->sensitivity_mask != 0 && token.valid()) {
      // Golden payload of token k: token_bytes copies of (uint8)k.
      std::uint8_t sum = 0;
      for (const std::uint8_t byte : token.payload()) {
        sum = static_cast<std::uint8_t>(sum + byte);
      }
      const auto golden = static_cast<std::uint8_t>(
          spec->token_bytes * static_cast<std::size_t>(token.seq() & 0xff));
      if ((sum & spec->sensitivity_mask) != (golden & spec->sensitivity_mask)) {
        ++corruptions;
      }
    }

    if (!saw_token) {
      // First delivery calibrates the golden schedule: its pipeline-fill
      // latency is part of the design, not lateness.
      anchor = now - static_cast<rtc::TimeNs>(token.seq()) * spec->producer.period;
      saw_token = true;
    }
    const rtc::TimeNs deadline =
        anchor + static_cast<rtc::TimeNs>(token.seq()) * spec->producer.period +
        spec->deadline_slack;
    if (now > deadline) ++misses;
  }
};

/// Manual fault application for the unprotected (N = 1) rig, where no
/// ft::FaultCampaign wiring exists. Depth counters make overlapping windows
/// compose (the last window to close clears the effect).
struct ManualFaults {
  bool tamper_active = false;
  bool tamper_silent = false;
  double tamper_probability = 0.0;
  util::Xoshiro256 tamper_rng{1};
};

void arm_manual_faults(sim::Simulator& simulator, const chaos::StormPlan& plan,
                       kpn::Process& stage, ManualFaults& state) {
  for (const ft::FaultSpec& spec : plan.faults) {
    switch (spec.kind) {
      case ft::FaultKind::kTransientSilence:
        // Same effect FaultCampaign applies to a replica: the gate macro
        // parks the body until silence_until, then self-clears.
        simulator.schedule_at(spec.at, [&stage, until = spec.at + spec.duration] {
          kpn::FaultState& fault = stage.context().fault();
          fault.silenced = true;
          fault.silence_until = std::max(fault.silence_until, until);
          if (fault.faulted_at < 0) fault.faulted_at = stage.context().now();
        });
        break;
      case ft::FaultKind::kRateDegradation:
        simulator.schedule_at(spec.at, [&stage, factor = spec.rate_factor] {
          kpn::FaultState& fault = stage.context().fault();
          fault.rate_factor = factor;
          if (fault.faulted_at < 0) fault.faulted_at = stage.context().now();
        });
        simulator.schedule_at(spec.at + spec.duration, [&stage] {
          stage.context().fault().rate_factor = 1.0;
        });
        break;
      case ft::FaultKind::kPayloadCorruption:
      case ft::FaultKind::kSilentCorruption:
        // Mirrors the selector write-tamper: per-window RNG seeded from the
        // spec, last install/clear wins under overlapping windows.
        simulator.schedule_at(
            spec.at, [&state, silent = spec.kind == ft::FaultKind::kSilentCorruption,
                      probability = spec.corrupt_probability, seed = spec.seed] {
              state.tamper_active = true;
              state.tamper_silent = silent;
              state.tamper_probability = probability;
              state.tamper_rng = util::Xoshiro256(seed);
            });
        simulator.schedule_at(spec.at + spec.duration, [&state] {
          state.tamper_active = false;
        });
        break;
      default:
        util::contract_failure("precondition",
                               "profiler plans carry data-path kinds only",
                               __FILE__, __LINE__);
    }
  }
}

/// N = 1: producer -> stage -> consumer over plain FIFOs, faults applied
/// manually. There is no detection machinery to count — by construction.
TrialOutcome run_trial_unprotected(const ProcessSpec& spec,
                                   const chaos::StormPlan& plan) {
  sim::Simulator simulator;
  kpn::Network net(simulator);
  const rtc::Tokens capacity = rtc::pipeline_fifo_capacity(spec.producer, spec.stage);
  auto& in = net.add_fifo(spec.name + ".in", capacity);
  auto& out = net.add_fifo(spec.name + ".out", capacity);

  Scorer scorer;
  scorer.spec = &spec;
  ManualFaults faults;

  const std::uint64_t seed = plan.seed;
  net.add_process(spec.name + ".producer", scc::CoreId{0}, seed * 10 + 1,
                  [&spec, &in](kpn::ProcessContext& ctx) {
                    return ft::synthetic_producer(ctx, spec.producer, spec.token_bytes, in);
                  });
  kpn::Process& stage = net.add_process(
      spec.name + ".stage", scc::CoreId{2}, seed * 10 + 2,
      [&spec, &in, &out, &faults](kpn::ProcessContext& ctx) -> sim::Task {
        kpn::TimingShaper emit(spec.stage, ctx.now(), ctx.rng());
        rtc::TimeNs last_emit = -1;
        while (true) {
          SCCFT_FAULT_GATE(ctx);
          kpn::Token token = co_await kpn::read(in);
          SCCFT_FAULT_GATE(ctx);
          rtc::TimeNs target = emit.next_emission(ctx.now());
          if (ctx.fault().rate_factor > 1.0 && last_emit >= 0) {
            target = std::max(
                target, last_emit + static_cast<rtc::TimeNs>(
                                        ctx.fault().rate_factor *
                                        static_cast<double>(spec.stage.period)));
          }
          if (target > ctx.now()) co_await ctx.compute(target - ctx.now());
          SCCFT_FAULT_GATE(ctx);
          if (faults.tamper_active && token.valid() &&
              token.size_bytes() > 0 &&
              faults.tamper_rng.chance(faults.tamper_probability)) {
            const auto bit = static_cast<std::size_t>(faults.tamper_rng.next());
            token = faults.tamper_silent ? token.silently_corrupted(bit)
                                         : token.corrupted(bit);
          }
          co_await kpn::write(out, token);
          emit.commit(ctx.now());
          last_emit = ctx.now();
        }
      });
  net.add_process(spec.name + ".consumer", scc::CoreId{4}, seed * 10 + 3,
                  [&spec, &out, &scorer](kpn::ProcessContext& ctx) {
                    return ft::synthetic_consumer(
                        ctx, spec.consumer, out,
                        [&scorer](const kpn::Token& token, rtc::TimeNs now) {
                          scorer.score(token, now);
                        });
                  });

  arm_manual_faults(simulator, plan, stage, faults);
  net.run_until(plan.run_length);
  net.rethrow_failures();

  TrialOutcome outcome;
  outcome.injections = static_cast<int>(plan.faults.size());
  outcome.delivered = scorer.delivered;
  outcome.corruptions = scorer.corruptions;
  outcome.divergences = scorer.divergences;
  outcome.deadline_misses = scorer.misses;
  return outcome;
}

/// N >= 2: the paper's supervised duplicated pair (N = 2), or the
/// unsupervised payload-vote rig (N >= 3). Faults go through
/// ft::FaultCampaign; only the pair has a Supervisor to act on them.
TrialOutcome run_trial_replicated(const ProcessSpec& spec, int protection,
                                  const chaos::StormPlan& plan) {
  sim::Simulator simulator;
  kpn::Network net(simulator);

  const auto n = static_cast<std::size_t>(protection);
  ft::FaultTolerantHarness::Config config;
  config.timing = ft::AppTimingSpec{.producer = spec.producer,
                                    .consumer = spec.consumer,
                                    .replica_in = std::vector<rtc::PJD>(n, spec.stage),
                                    .replica_out = std::vector<rtc::PJD>(n, spec.stage)};
  config.name_prefix = spec.name;
  config.enable_payload_vote = protection >= 3;
  ft::FaultTolerantHarness harness(net, config);

  Scorer scorer;
  scorer.spec = &spec;

  std::vector<std::vector<kpn::Process*>> replica_groups = ft::add_synthetic_stream(
      net, harness, config.timing,
      {.prefix = spec.name + ".", .seed = plan.seed, .token_bytes = spec.token_bytes,
       .on_token = [&scorer](const kpn::Token& token, rtc::TimeNs now) {
         scorer.score(token, now);
       }});

  std::optional<ft::Supervisor> supervisor;
  if (protection == 2) {
    ft::Supervisor::Config supervisor_config;
    supervisor_config.restart_budget = 3;
    supervisor_config.initial_backoff = 20'000'000;
    supervisor_config.detection_latency_bound = harness.sizing().detection_bound();
    supervisor_config.name = spec.name + ".sup";
    supervisor_config.injection_subject = spec.name + ".faults";
    supervisor.emplace(
        simulator, harness.replicator(), harness.selector(),
        std::array<ft::ReplicaAssets, 2>{
            ft::ReplicaAssets{ft::ReplicaIndex::kReplica1, replica_groups[0], {}},
            ft::ReplicaAssets{ft::ReplicaIndex::kReplica2, replica_groups[1], {}}},
        supervisor_config);
  }

  ft::FaultCampaign::Wiring wiring;
  wiring.replicator = &harness.replicator();
  wiring.selector = &harness.selector();
  wiring.processes = std::move(replica_groups);
  if (supervisor) wiring.supervisor = &*supervisor;
  ft::FaultCampaign campaign(simulator, wiring, spec.name + ".faults");
  for (const ft::FaultSpec& fault : plan.faults) campaign.add(fault);
  campaign.arm();

  net.run_until(plan.run_length);
  net.rethrow_failures();

  TrialOutcome outcome;
  outcome.injections = static_cast<int>(plan.faults.size());
  outcome.delivered = scorer.delivered;
  outcome.corruptions = scorer.corruptions;
  outcome.divergences = scorer.divergences;
  outcome.deadline_misses = scorer.misses;
  outcome.detections = harness.detections().records.size();
  if (!harness.detections().records.empty() && !plan.faults.empty()) {
    outcome.detection_latency =
        harness.detections().records.front().detected_at - plan.faults.front().at;
  }
  return outcome;
}

TrialOutcome run_trial(const ProcessSpec& spec, int protection,
                       const chaos::StormPlan& plan) {
  if (protection <= 1) return run_trial_unprotected(spec, plan);
  return run_trial_replicated(spec, protection, plan);
}

}  // namespace

VulnerabilityProfile profile_application(const Application& app,
                                         const ProfilerOptions& options) {
  SCCFT_EXPECTS(!app.processes.empty());
  SCCFT_EXPECTS(options.trials_per_cell >= 1);
  SCCFT_EXPECTS(options.run_length >= rtc::from_sec(1.0));
  SCCFT_EXPECTS(options.min_faults >= 1);
  SCCFT_EXPECTS(options.max_faults >= options.min_faults);
  SCCFT_EXPECTS(!options.protections.empty());
  for (const int n : options.protections) SCCFT_EXPECTS(n >= 1 && n <= 4);

  const std::vector<ft::FaultKind>& kinds = profiled_kinds();
  const int cells_per_process =
      static_cast<int>(kinds.size() * options.protections.size());
  const int total_cells =
      static_cast<int>(app.processes.size()) * cells_per_process;

  std::vector<CampaignCell> slots(static_cast<std::size_t>(total_cells));
  util::parallel_for_ordered(
      total_cells, options.jobs, [&](int cell_index) {
        const auto process_index =
            static_cast<std::size_t>(cell_index / cells_per_process);
        const int within = cell_index % cells_per_process;
        const auto kind_index = static_cast<std::size_t>(
            within / static_cast<int>(options.protections.size()));
        const auto level_index = static_cast<std::size_t>(
            within % static_cast<int>(options.protections.size()));
        const ProcessSpec& spec = app.processes[process_index];
        const ft::FaultKind kind = kinds[kind_index];
        const int protection = options.protections[level_index];

        chaos::StormConfig storm;
        storm.run_length = options.run_length;
        storm.min_faults = options.min_faults;
        storm.max_faults = options.max_faults;
        storm.nreplica = std::max(protection, 2);
        storm.allow_noc = false;
        storm.only_kind = kind;
        storm.pin_victim = 0;
        const chaos::StormGenerator generator(storm);

        CampaignCell cell;
        cell.kind = kind;
        cell.protection = protection;
        // Cell seeds depend only on (profile seed, cell coordinates): the
        // schedule of the worker pool can never leak into the measurements.
        const std::uint64_t cell_seed =
            options.seed * 0x9E3779B97F4A7C15ULL +
            (static_cast<std::uint64_t>(cell_index) + 1) * 0x2545F4914F6CDD1DULL;
        for (int trial = 0; trial < options.trials_per_cell; ++trial) {
          const chaos::StormPlan plan =
              generator.generate(cell_seed + static_cast<std::uint64_t>(trial));
          const TrialOutcome outcome = run_trial(spec, protection, plan);
          ++cell.trials;
          cell.injections += outcome.injections;
          cell.tokens_delivered += outcome.delivered;
          cell.corruption_escapes += outcome.corruptions;
          cell.sequence_divergences += outcome.divergences;
          cell.deadline_misses += outcome.deadline_misses;
          cell.detections += outcome.detections;
          if (outcome.detection_latency) {
            cell.detection_latency_sum += *outcome.detection_latency;
            ++cell.detection_latency_count;
          }
        }
        slots[static_cast<std::size_t>(cell_index)] = cell;
      });

  VulnerabilityProfile profile;
  profile.seed = options.seed;
  profile.run_length = options.run_length;
  profile.trials_per_cell = options.trials_per_cell;
  profile.processes.reserve(app.processes.size());
  for (std::size_t p = 0; p < app.processes.size(); ++p) {
    ProcessProfile process;
    process.name = app.processes[p].name;
    process.index = app.processes[p].index;
    process.cells.assign(
        slots.begin() + static_cast<std::ptrdiff_t>(p) * cells_per_process,
        slots.begin() + static_cast<std::ptrdiff_t>(p + 1) * cells_per_process);
    profile.processes.push_back(std::move(process));
  }
  return profile;
}

}  // namespace sccft::vuln
