#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <string_view>
#include <utility>

#include "apps/adpcm/app.hpp"
#include "apps/common/experiment.hpp"
#include "apps/h264/app.hpp"
#include "apps/mjpeg/app.hpp"
#include "chaos/oracle.hpp"
#include "chaos/runner.hpp"
#include "chaos/storm.hpp"
#include "ft/fleet.hpp"
#include "host_speed.hpp"
#include "rtc/sizing.hpp"
#include "scc/placement.hpp"
#include "trace/sinks.hpp"
#include "vuln/planner.hpp"
#include "vuln/profile.hpp"
#include "vuln/profiler.hpp"

namespace sccft::perf {

// ---------------------------------------------------------------------------
// RepResult
// ---------------------------------------------------------------------------

namespace {

/// Host-speed samples are taken after every slice this long: short enough to
/// follow the host's swings, long enough that sampling costs about 4%.
constexpr std::chrono::milliseconds kSlice{100};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

void RepResult::op_done(Clock::time_point start, bool ok) {
  op_ms.push_back(ms_since(start));
  ++attempted;
  if (!ok) ++failed;
  if (paced_ && Clock::now() - slice_start_ >= kSlice) close_slice();
}

void RepResult::finish() {
  if (!paced_ || slice_first_op_ < op_ms.size()) close_slice();
}

void RepResult::close_slice() {
  const double slice_s = ms_since(slice_start_) / 1e3;
  wall_s += slice_s;
  if (paced_) {
    const double slowness = host_slowness();
    ref_s += slice_s / slowness;
    for (std::size_t i = slice_first_op_; i < op_ms.size(); ++i) {
      op_ref_ms.push_back(op_ms[i] / slowness);
    }
  }
  slice_first_op_ = op_ms.size();
  slice_start_ = Clock::now();
}

namespace {

/// One operation of a repetition: its top-level span while it lives, then
/// its record in the repetition. The record comes after the span closes, so
/// the host-speed sampling it may trigger stays outside every span.
class OpScope final {
 public:
  OpScope(RepResult& rep, Tracer* tracer, std::string_view name)
      : rep_(rep), tracer_(tracer), id_(static_cast<std::int64_t>(rep.attempted)) {
    if (tracer_ != nullptr) tracer_->begin(name, id_);
  }
  ~OpScope() {
    if (tracer_ != nullptr) tracer_->end();
    rep_.op_done(start_, ok);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

  bool ok = true;  ///< cleared by the workload's oracle

 private:
  RepResult& rep_;
  Tracer* tracer_;
  std::int64_t id_;
  Clock::time_point start_ = Clock::now();
};

/// FNV-1a over the modelled outputs of a repetition: consumed sequences,
/// times and CRCs, detection records, fills, fleet outcomes, profile and
/// plan texts. Host-side counts (events, trace volume) stay out of it, so a
/// kernel change that elides events but keeps every output passes.
class Digest final {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ULL;
    }
  }
  void add(std::string_view bytes) {
    add(bytes.size());
    for (const char c : bytes) {
      hash_ = (hash_ ^ static_cast<std::uint8_t>(c)) * 1099511628211ULL;
    }
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(values.size());
    for (const T& v : values) add(static_cast<std::uint64_t>(v));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t or_none(const std::optional<rtc::TimeNs>& v) {
  return v ? static_cast<std::uint64_t>(*v) : ~std::uint64_t{0};
}

/// Channel-traffic event kinds, counted as kpn.* per-layer metrics.
constexpr std::array<std::pair<const char*, trace::EventKind>, 5> kKpnKinds{{
    {"kpn.enqueue", trace::EventKind::kEnqueue},
    {"kpn.dequeue", trace::EventKind::kDequeue},
    {"kpn.writer_block", trace::EventKind::kWriterBlock},
    {"kpn.reader_block", trace::EventKind::kReaderBlock},
    {"kpn.token_drop", trace::EventKind::kTokenDrop},
}};

std::uint32_t kpn_mask() {
  std::uint32_t mask = 0;
  for (const auto& [name, kind] : kKpnKinds) mask |= trace::bit(kind);
  return mask;
}

/// Adds the CounterSink totals ("trace.events.<kind>") of `registry`.
void add_kpn_counts(const trace::MetricsRegistry& registry, Counts& counts) {
  for (const auto& [name, kind] : kKpnKinds) {
    counts[name] += static_cast<double>(
        registry.counter(std::string("trace.events.") + trace::to_string(kind)));
  }
}

std::vector<apps::ApplicationSpec> paper_applications() {
  std::vector<apps::ApplicationSpec> specs;
  specs.push_back(apps::adpcm::make_application());
  specs.push_back(apps::mjpeg::make_application());
  specs.push_back(apps::h264::make_application());
  return specs;
}

/// The bench/fleet sweep: every second stream critical, a shared restart
/// pool of two restarts per stream.
constexpr std::array<int, 11> kFleetStreamCounts{1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96};

ft::FleetSpec fleet_spec(int streams, std::uint64_t seed) {
  ft::FleetSpec spec;
  spec.streams = streams;
  spec.seed = seed;
  spec.shared_restart_budget = 2 * streams;
  return spec;
}

/// Host time of the placement step run_fleet starts with: materialize the
/// streams, size their queues into a placement request, place it (an
/// infeasible fleet fails inside place_fleet after a full search).
double placement_ms(const ft::FleetSpec& spec) {
  const auto start = Clock::now();
  try {
    (void)scc::place_fleet(ft::build_placement_request(spec, spec.materialize()));
  } catch (const scc::PlacementError&) {
  }
  return ms_since(start);
}

// ---------------------------------------------------------------------------
// paper_tables
// ---------------------------------------------------------------------------

/// The four runs of the Table 2 protocol, per application and seed.
enum RunKind { kDuplicated, kReference, kFaultR1, kFaultR2, kRunKinds };
constexpr std::array<const char*, kRunKinds> kRunKindNames{"dup", "ref", "fault_r1",
                                                          "fault_r2"};

apps::ExperimentOptions table2_options(RunKind kind, std::uint64_t seed) {
  apps::ExperimentOptions options;
  options.seed = seed;
  options.run_periods = 240;
  options.fault_after_periods = 150;
  options.duplicated = kind != kReference;
  options.inject_fault = kind == kFaultR1 || kind == kFaultR2;
  options.faulty_replica =
      kind == kFaultR2 ? ft::ReplicaIndex::kReplica2 : ft::ReplicaIndex::kReplica1;
  return options;
}

bool prefix_equal(const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  return std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n), b.begin());
}

/// Theorem 2 and the detection verdicts: every run's output checksums match
/// the reference run's over their common prefix; fault runs are detected and
/// blame the faulty replica; fault-free runs detect nothing.
bool table2_ok(const std::array<std::optional<apps::ExperimentResult>, kRunKinds>& runs) {
  const auto& ref = runs[kReference];
  for (int kind = 0; kind < kRunKinds; ++kind) {
    const auto& run = runs[static_cast<std::size_t>(kind)];
    if (!run || !ref || run->output_checksums.empty() ||
        !prefix_equal(run->output_checksums, ref->output_checksums)) {
      return false;
    }
    const bool faulty = kind == kFaultR1 || kind == kFaultR2;
    if (faulty && !(run->any_detection && !run->false_positive && run->correct_replica)) {
      return false;
    }
    if (!faulty && run->any_detection) return false;
  }
  return true;
}

void fold(Digest& digest, const apps::ExperimentResult& r) {
  digest.add(r.consumer_tokens);
  digest.add_all(r.output_checksums);
  if (r.metrics) {
    if (const auto* series = r.metrics->find_series("consumer.interarrival_ns")) {
      digest.add_all(series->samples());
    }
  }
  for (const rtc::Tokens fill : {r.fill_r1, r.fill_r2, r.fill_s1, r.fill_s2}) {
    digest.add(static_cast<std::uint64_t>(fill));
  }
  digest.add(r.any_detection);
  digest.add(r.false_positive);
  digest.add(r.correct_replica);
  digest.add(static_cast<std::uint64_t>(r.fault_injected_at));
  digest.add(or_none(r.first_latency));
  digest.add(or_none(r.replicator_latency));
  digest.add(or_none(r.selector_latency));
  if (r.first_record) {
    digest.add(static_cast<std::uint64_t>(ft::index_of(r.first_record->replica)));
    digest.add(static_cast<std::uint64_t>(r.first_record->rule));
    digest.add(static_cast<std::uint64_t>(r.first_record->detected_at));
  }
  digest.add(r.consumer_stalls);
  digest.add(r.noc_contention_stalls);
}

class PaperTables final : public Workload {
 public:
  PaperTables(std::uint64_t seed, bool quick) : seed_(seed), seeds_(quick ? 2 : 180) {}

  void setup() override {
    apps_.clear();
    for (apps::ApplicationSpec& spec : paper_applications()) {
      App app;
      for (int kind = 0; kind < kRunKinds; ++kind) {
        app.run_spans[static_cast<std::size_t>(kind)] =
            "apps.run." + spec.name + "." + kRunKindNames[static_cast<std::size_t>(kind)];
      }
      app.runner = std::make_unique<apps::ExperimentRunner>(std::move(spec));
      // One duplicated and one reference run touch every input of the cycle,
      // which fills every transform cache the timed runs read.
      (void)app.runner->run(table2_options(kDuplicated, seed_));
      (void)app.runner->run(table2_options(kReference, seed_));
      apps_.push_back(std::move(app));
    }
  }

  void run(RepResult& rep, Tracer* tracer, Counts* counts) override {
    Digest digest;
    trace::MetricsRegistry kpn_registry;
    trace::CounterSink kpn_sink(kpn_registry);
    for (std::uint64_t seed = seed_; seed < seed_ + seeds_; ++seed) {
      OpScope op(rep, tracer, "paper_tables.op");
      for (App& app : apps_) {
        std::array<std::optional<apps::ExperimentResult>, kRunKinds> runs;
        for (int kind = 0; kind < kRunKinds; ++kind) {
          apps::ExperimentOptions options = table2_options(static_cast<RunKind>(kind), seed);
          if (counts != nullptr) {
            options.trace_sink = &kpn_sink;
            options.trace_mask = kpn_mask();
          }
          const ScopedSpan span(tracer, app.run_spans[static_cast<std::size_t>(kind)], op.id());
          try {
            runs[static_cast<std::size_t>(kind)] = app.runner->run(options);
          } catch (const std::exception&) {
            // A missing run fails the oracle below.
          }
          rep.simulated_s += static_cast<double>(options.run_periods) *
                             static_cast<double>(app.runner->app().timing.producer.period) /
                             1e9;
        }
        const ScopedSpan check(tracer, "bench.oracle", op.id());
        op.ok = table2_ok(runs) && op.ok;
        for (const auto& run : runs) {
          digest.add(run.has_value());
          if (!run) continue;
          fold(digest, *run);
          if (counts != nullptr) {
            (*counts)["sim.runs"] += 1;
            (*counts)["sim.events"] += static_cast<double>(run->events_processed);
            (*counts)["ft.detections"] += run->any_detection ? 1 : 0;
            (*counts)["scc.noc_contention_stalls"] +=
                static_cast<double>(run->noc_contention_stalls);
          }
        }
      }
    }
    if (counts != nullptr) add_kpn_counts(kpn_registry, *counts);
    rep.digest = digest.value();
  }

  void derive(const std::map<std::string, SpanTotals>& totals, Counts& counts) const override {
    double dup_ms = 0.0, ref_ms = 0.0;
    for (const App& app : apps_) {
      double app_ms = 0.0;
      for (int kind = 0; kind < kRunKinds; ++kind) {
        const auto it = totals.find(app.run_spans[static_cast<std::size_t>(kind)]);
        if (it == totals.end()) continue;
        app_ms += it->second.total_ms;
        if (kind == kDuplicated) dup_ms += it->second.total_ms;
        if (kind == kReference) ref_ms += it->second.total_ms;
      }
      counts["apps.run_ms." + app.runner->app().name] = app_ms;
    }
    // Host cost of replication: duplicated minus reference runs, same seeds.
    counts["ft.dup_minus_ref_ms"] = dup_ms - ref_ms;
  }

 private:
  struct App {
    std::unique_ptr<apps::ExperimentRunner> runner;
    std::array<std::string, kRunKinds> run_spans;
  };

  std::uint64_t seed_;
  std::uint64_t seeds_;
  std::vector<App> apps_;
};

// ---------------------------------------------------------------------------
// chaos_soak
// ---------------------------------------------------------------------------

void fold(Digest& digest, const chaos::RunObservation& obs) {
  digest.add_all(obs.consumed_seqs);
  digest.add_all(obs.consumed_times);
  digest.add_all(obs.consumed_fingerprints);
  digest.add(obs.corrupt_delivered);
  digest.add(obs.transitions.size());
  for (const ft::HealthTransition& t : obs.transitions) {
    digest.add(static_cast<std::uint64_t>(ft::index_of(t.replica)));
    digest.add(static_cast<std::uint64_t>(t.from));
    digest.add(static_cast<std::uint64_t>(t.to));
    digest.add(static_cast<std::uint64_t>(t.at));
  }
  digest.add(obs.injections.size());
  for (const ft::FaultInjectionRecord& i : obs.injections) {
    digest.add(static_cast<std::uint64_t>(i.kind));
    digest.add(static_cast<std::uint64_t>(i.at));
    digest.add(static_cast<std::uint64_t>(i.victim));
  }
  digest.add(obs.heartbeats);
  digest.add(obs.watchdog_resets);
  digest.add(obs.scrub_repairs);
  digest.add(obs.reconfig_windows);
  digest.add(obs.reconfig_targets);
  digest.add(obs.reconfig_clamped);
  digest.add(obs.contract_violation.has_value());
}

/// The three CI soak lanes, interleaved per seed.
struct SoakMode {
  const char* storm_span;
  chaos::StormGenerator generator;
  chaos::RunOptions options;
};

std::vector<SoakMode> soak_modes() {
  std::vector<SoakMode> modes;
  modes.push_back({"chaos.storm.default", chaos::StormGenerator{}, {}});

  chaos::StormConfig control;
  control.control_plane = true;
  chaos::RunOptions control_run;
  control_run.control_plane.enabled = true;
  modes.push_back({"chaos.storm.control_plane", chaos::StormGenerator{control}, control_run});

  chaos::StormConfig reconfigure;
  reconfigure.reconfigure = true;
  chaos::RunOptions reconfigure_run;
  reconfigure_run.reconfig.enabled = true;
  modes.push_back(
      {"chaos.storm.reconfigure", chaos::StormGenerator{reconfigure}, reconfigure_run});
  return modes;
}

class ChaosSoak final : public Workload {
 public:
  ChaosSoak(std::uint64_t seed, bool quick) : seed_(seed), seeds_(quick ? 4 : 600) {}

  void setup() override {
    modes_ = soak_modes();
    // Warm-up: one seed's storms pay the process's first-call costs.
    RepResult scratch;
    Digest digest;
    run_op(seed_, nullptr, nullptr, scratch, digest);
  }

  void run(RepResult& rep, Tracer* tracer, Counts* counts) override {
    Digest digest;
    for (std::uint64_t seed = seed_; seed < seed_ + seeds_; ++seed) {
      run_op(seed, tracer, counts, rep, digest);
    }
    rep.digest = digest.value();
  }

 private:
  void run_op(std::uint64_t seed, Tracer* tracer, Counts* counts, RepResult& rep,
              Digest& digest) const {
    OpScope op(rep, tracer, "chaos_soak.op");
    for (const SoakMode& mode : modes_) {
      try {
        chaos::StormPlan plan;
        {
          const ScopedSpan span(tracer, "chaos.generate", op.id());
          plan = mode.generator.generate(seed);
        }
        chaos::RunObservation golden;
        {
          const ScopedSpan span(tracer, "chaos.golden", op.id());
          golden = chaos::run_golden(plan.seed, plan.run_length, mode.options.reconfig,
                                     mode.options.nreplica);
        }
        chaos::RunObservation obs;
        {
          const ScopedSpan span(tracer, mode.storm_span, op.id());
          obs = chaos::run_storm(plan, mode.options);
        }
        std::vector<chaos::Violation> violations;
        {
          const ScopedSpan span(tracer, "chaos.oracle", op.id());
          violations = chaos::check_invariants(plan, obs, golden);
        }
        op.ok = violations.empty() && op.ok;
        fold(digest, golden);
        fold(digest, obs);
        digest.add(violations.size());
        rep.simulated_s += 2.0 * static_cast<double>(plan.run_length) / 1e9;
        if (counts != nullptr) {
          Counts& c = *counts;
          c["sim.runs"] += 2;
          c["sim.events"] +=
              static_cast<double>(golden.events_processed + obs.events_processed);
          add_kpn_counts(golden.metrics, c);
          add_kpn_counts(obs.metrics, c);
          c["ft.detections"] += static_cast<double>(obs.metrics.counter(
              std::string("trace.events.") + trace::to_string(trace::EventKind::kDetection)));
          for (const ft::HealthTransition& t : obs.transitions) {
            if (t.to == ft::ReplicaHealth::kRestarting) c["ft.restarts"] += 1;
          }
          c["ft.scrub_repairs"] += static_cast<double>(obs.scrub_repairs);
          c["trace.flight_events"] +=
              static_cast<double>(golden.flight_total_events + obs.flight_total_events);
          c["adapt.reconfig_windows"] += static_cast<double>(obs.reconfig_windows);
        }
      } catch (const std::exception&) {
        op.ok = false;
        digest.add(~std::uint64_t{0});
      }
    }
  }

  std::uint64_t seed_;
  std::uint64_t seeds_;
  std::vector<SoakMode> modes_;
};

// ---------------------------------------------------------------------------
// fleet_sweep
// ---------------------------------------------------------------------------

void fold(Digest& digest, const ft::FleetRunResult& r) {
  digest.add(r.placement_cost);
  digest.add(static_cast<std::uint64_t>(r.tiles_used));
  digest.add(static_cast<std::uint64_t>(r.max_core_load));
  digest.add(r.max_tile_mpb_used);
  digest.add(r.noc_contention_stalls);
  digest.add(static_cast<std::uint64_t>(r.max_link_busy_ns));
  digest.add(static_cast<std::uint64_t>(r.total_link_busy_ns));
  digest.add(static_cast<std::uint64_t>(r.simulated_ns));
  digest.add(static_cast<std::uint64_t>(r.pool_used));
  for (const ft::FleetStreamOutcome& s : r.streams) {
    digest.add(static_cast<std::uint64_t>(s.protection));
    digest.add(s.tokens_consumed);
    digest.add(or_none(s.detection_latency));
    digest.add(static_cast<std::uint64_t>(s.detection_bound));
    digest.add(s.detected);
    digest.add(s.false_conviction);
    digest.add(static_cast<std::uint64_t>(s.restarts));
    digest.add(s.degraded);
    for (const rtc::Tokens v : {s.replicator_max_fill, s.replicator_capacity,
                                s.selector_max_fill, s.selector_capacity}) {
      digest.add(static_cast<std::uint64_t>(v));
    }
    digest.add(s.writer_blocks);
    digest.add(s.sequence_gap);
    digest.add(s.upper_violations);
    digest.add(s.lower_violations);
  }
}

/// Every critical stream detects its injected outage within the Eq. (6)-(8)
/// bound and convicts no healthy replica.
bool fleet_ok(const ft::FleetRunResult& r) {
  for (const ft::FleetStreamOutcome& s : r.streams) {
    if (!s.critical) continue;
    if (!s.detected || !s.detection_latency || *s.detection_latency > s.detection_bound ||
        s.false_conviction) {
      return false;
    }
  }
  return true;
}

class FleetSweep final : public Workload {
 public:
  FleetSweep(std::uint64_t seed, bool quick) : seed_(seed), seeds_(quick ? 1 : 40) {}

  void setup() override {
    // Warm-up: one mid-size fleet pays the process's first-call costs.
    (void)ft::run_fleet(fleet_spec(8, seed_));
  }

  void run(RepResult& rep, Tracer* tracer, Counts* counts) override {
    Digest digest;
    for (std::uint64_t seed = seed_; seed < seed_ + seeds_; ++seed) {
      OpScope op(rep, tracer, "fleet_sweep.op");
      for (const int streams : kFleetStreamCounts) {
        std::optional<ft::FleetRunResult> result;
        bool infeasible = false;
        {
          const ScopedSpan span(tracer, "ft.fleet", op.id());
          try {
            result = ft::run_fleet(fleet_spec(streams, seed));
          } catch (const scc::PlacementError&) {
            infeasible = true;  // the mesh is full: an outcome of the sweep
          } catch (const std::exception&) {
            op.ok = false;
          }
        }
        const ScopedSpan check(tracer, "bench.oracle", op.id());
        digest.add(infeasible);
        if (counts != nullptr) (*counts)["fleet.infeasible"] += infeasible ? 1 : 0;
        if (!result) continue;
        op.ok = fleet_ok(*result) && op.ok;
        fold(digest, *result);
        rep.simulated_s += static_cast<double>(result->simulated_ns) / 1e9;
        if (counts != nullptr) {
          Counts& c = *counts;
          c["sim.runs"] += 1;
          c["sim.events"] += static_cast<double>(result->events_processed);
          c["scc.noc_contention_stalls"] += static_cast<double>(result->noc_contention_stalls);
          c["scc.max_link_busy_ns"] = std::max(c["scc.max_link_busy_ns"],
                                               static_cast<double>(result->max_link_busy_ns));
          for (const ft::FleetStreamOutcome& s : result->streams) {
            c["kpn.writer_block"] += static_cast<double>(s.writer_blocks);
            c["ft.detections"] += s.detected ? 1 : 0;
            c["ft.restarts"] += s.restarts;
          }
        }
      }
    }
    rep.digest = digest.value();
  }

  /// Placement of every fleet of the sweep, timed on its own: run_fleet
  /// places internally, so this is the placement share of the sweep.
  void probe(Counts& counts) override {
    double place_ms = 0.0;
    for (std::uint64_t seed = seed_; seed < seed_ + seeds_; ++seed) {
      for (const int streams : kFleetStreamCounts) place_ms += placement_ms(fleet_spec(streams, seed));
    }
    counts["scc.place_ms"] = place_ms;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t seeds_;
};

// ---------------------------------------------------------------------------
// vuln_profile
// ---------------------------------------------------------------------------

class VulnProfile final : public Workload {
 public:
  VulnProfile(std::uint64_t seed, bool quick) : seed_(seed), profiles_(quick ? 1 : 15) {}

  void setup() override {
    app_ = vuln::reference_application();
    // Warm-up: one profile + plan sweep pays the process's first-call costs.
    RepResult scratch;
    Digest digest;
    run_op(seed_, nullptr, nullptr, scratch, digest);
  }

  void run(RepResult& rep, Tracer* tracer, Counts* counts) override {
    Digest digest;
    for (std::uint64_t i = 0; i < profiles_; ++i) {
      run_op(seed_ + i, tracer, counts, rep, digest);
    }
    rep.digest = digest.value();
  }

 private:
  /// Budgets 0 .. full duplication of the 8-process reference application.
  static constexpr int kMaxBudget = 8;

  void run_op(std::uint64_t seed, Tracer* tracer, Counts* counts, RepResult& rep,
              Digest& digest) const {
    OpScope op(rep, tracer, "vuln_profile.op");
    try {
      vuln::ProfilerOptions options;
      options.trials_per_cell = 4;
      options.seed = seed;
      vuln::VulnerabilityProfile profile;
      {
        const ScopedSpan span(tracer, "vuln.profile", op.id());
        profile = vuln::profile_application(app_, options);
      }
      std::vector<vuln::ProtectionPlan> plans;
      for (int budget = 0; budget <= kMaxBudget; ++budget) {
        const ScopedSpan span(tracer, "vuln.plan", op.id());
        vuln::PlannerOptions planner;
        planner.budget_extra_cores = budget;
        plans.push_back(vuln::plan_protection(app_, profile, planner));
      }
      const ScopedSpan span(tracer, "bench.oracle", op.id());
      const std::string text = vuln::to_text(profile);
      op.ok = vuln::profile_from_text(text) == profile;
      digest.add(text);
      for (const vuln::ProtectionPlan& plan : plans) {
        int extra = 0;
        for (const int n : plan.protection) extra += n - 1;
        op.ok = op.ok && extra <= plan.budget_extra_cores;
        digest.add(vuln::to_text(plan));
      }
      std::uint64_t storms = 0, detections = 0;
      for (const vuln::ProcessProfile& process : profile.processes) {
        for (const vuln::CampaignCell& cell : process.cells) {
          storms += static_cast<std::uint64_t>(cell.trials);
          detections += cell.detections;
        }
      }
      rep.simulated_s += static_cast<double>(storms) *
                         static_cast<double>(profile.run_length) / 1e9;
      if (counts != nullptr) {
        (*counts)["sim.runs"] += static_cast<double>(storms);
        (*counts)["vuln.storms"] += static_cast<double>(storms);
        (*counts)["ft.detections"] += static_cast<double>(detections);
      }
    } catch (const std::exception&) {
      op.ok = false;
      digest.add(~std::uint64_t{0});
    }
  }

  std::uint64_t seed_;
  std::uint64_t profiles_;
  vuln::Application app_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool quick) {
  if (name == "paper_tables") return std::make_unique<PaperTables>(seed, quick);
  if (name == "chaos_soak") return std::make_unique<ChaosSoak>(seed, quick);
  if (name == "fleet_sweep") return std::make_unique<FleetSweep>(seed, quick);
  if (name == "vuln_profile") return std::make_unique<VulnProfile>(seed, quick);
  return nullptr;
}

void probe_layers(std::uint64_t seed, Counts& counts) {
  const std::vector<apps::ApplicationSpec> specs = paper_applications();

  // Design-time sizing, which every FaultTolerantHarness re-runs.
  constexpr int kSizingRounds = 20;
  auto start = Clock::now();
  for (int round = 0; round < kSizingRounds; ++round) {
    for (const apps::ApplicationSpec& spec : specs) {
      (void)rtc::analyze_duplicated_network(spec.timing.to_model(),
                                            spec.timing.default_horizon());
    }
  }
  counts["rtc.sizing_ms_per_call"] =
      ms_since(start) / static_cast<double>(kSizingRounds * specs.size());

  // Codec work a fresh ExperimentRunner pays before its caches are warm.
  double codec_ms = 0.0;
  for (const apps::ApplicationSpec& spec : specs) {
    std::vector<apps::Bytes> inputs;
    for (std::uint64_t i = 0; i < spec.input_cycle; ++i) inputs.push_back(spec.make_input(i));
    start = Clock::now();
    for (const apps::Bytes& input : inputs) (void)spec.apply_reference(input);
    codec_ms += ms_since(start);
  }
  counts["apps.codec_ms"] = codec_ms;

  // Fleet placement over the stream-count grid, infeasible counts included.
  constexpr int kPlacementRounds = 3;
  double place_ms = 0.0;
  for (int round = 0; round < kPlacementRounds; ++round) {
    for (const int streams : kFleetStreamCounts) place_ms += placement_ms(fleet_spec(streams, seed));
  }
  counts["scc.place_ms_per_call"] =
      place_ms / static_cast<double>(kPlacementRounds * kFleetStreamCounts.size());
}

}  // namespace sccft::perf
