// Micro-benchmarks (google-benchmark) for the Table 2 "Overhead" rows: the
// real CPU cost of one replicator/selector operation versus a plain FIFO,
// plus the cost of the design-time analyses and of the trace spine itself
// (per-emit cost with no subscriber / ring buffer / CSV sink).
//
// The paper reports the framework's runtime overhead as <= 0.02% of the
// application period; these benchmarks measure the arbitration-path cost in
// nanoseconds so the claim can be checked against any period.
//
// Run with --check-trace-overhead (no google-benchmark) to gate the trace
// spine's end-to-end cost: a full MJPEG experiment run with a ring-buffer
// flight recorder subscribed must stay within budget (a 5% relative cap and
// an 8 ns per-traced-event absolute cap — see check_trace_overhead for the
// calibration) and must produce the identical output stream.
//
// Run with --check-parallel-campaign (no google-benchmark) to gate campaign
// determinism: the same MJPEG fault campaign executed at --jobs 1 and at
// --jobs 4 must produce byte-identical merged metrics registries, seeds, and
// latency samples; the measured wall-clock speedup is reported.
//
// Run with --check-online-overhead (no google-benchmark) to gate the online
// RTC monitor's cost: attaching it to a full MJPEG run (--online-monitor)
// must stay within budget (a 25% relative cap and an 800 ns per-observed-
// emission absolute cap — see check_online_overhead for the calibration) and
// leave the output stream untouched. In a SCCFT_TRACE_COMPILED_OUT build the gate instead
// verifies the zero-cost discipline directly: the monitor observes zero
// events, so it has nothing to do at all.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string_view>
#include <thread>

#include "apps/mjpeg/app.hpp"
#include "apps/common/experiment.hpp"
#include "apps/common/generators.hpp"
#include "bench/campaign.hpp"
#include "apps/mjpeg/jpeg_codec.hpp"
#include "ft/replicator.hpp"
#include "ft/selector.hpp"
#include "kpn/channel.hpp"
#include "rtc/gpc.hpp"
#include "rtc/online/conformance.hpp"
#include "rtc/online/estimator.hpp"
#include "rtc/online/monitor.hpp"
#include "rtc/sizing.hpp"
#include "sim/simulator.hpp"
#include "trace/sinks.hpp"

namespace {

using namespace sccft;

kpn::Token small_token() {
  return kpn::Token(std::vector<std::uint8_t>(64, 0xAB), 0, 0);
}

void BM_PlainFifoWriteRead(benchmark::State& state) {
  sim::Simulator sim;
  kpn::FifoChannel fifo(sim, "f", 8);
  const auto token = small_token();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fifo.try_write(token.restamped(seq++, 0)));
    benchmark::DoNotOptimize(fifo.try_read());
  }
}
BENCHMARK(BM_PlainFifoWriteRead);

void BM_ReplicatorWriteBothReads(benchmark::State& state) {
  sim::Simulator sim;
  ft::ReplicatorChannel replicator(sim, "rep", {.capacities = {4, 4}});
  auto& r1 = replicator.read_interface(ft::ReplicaIndex::kReplica1);
  auto& r2 = replicator.read_interface(ft::ReplicaIndex::kReplica2);
  const auto token = small_token();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(replicator.try_write(token.restamped(seq++, 0)));
    benchmark::DoNotOptimize(r1.try_read());
    benchmark::DoNotOptimize(r2.try_read());
  }
}
BENCHMARK(BM_ReplicatorWriteBothReads);

void BM_SelectorArbitration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  ft::SelectorChannel selector(sim, "sel",
                               {.capacities = std::vector<rtc::Tokens>(n, 8),
                                .initials = std::vector<rtc::Tokens>(n, 2),
                                .divergence_threshold = 1'000'000});
  const auto token = small_token();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    // One duplicate group: enqueue + N-1 drops + consumer read.
    for (std::size_t r = 0; r < n; ++r) {
      benchmark::DoNotOptimize(selector.write_interface(static_cast<ft::ReplicaIndex>(r))
                                   .try_write(token.restamped(seq, 0)));
    }
    benchmark::DoNotOptimize(selector.try_read());
    ++seq;
  }
}
BENCHMARK(BM_SelectorArbitration)->Arg(2)->Arg(3)->Arg(4);

void BM_PjdCurveEvaluation(benchmark::State& state) {
  rtc::PJDUpperCurve upper(rtc::PJD::from_ms(30, 5, 30));
  rtc::TimeNs t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(upper.value_at(t));
    t = (t + 1'000'003) % rtc::from_ms(500.0);
  }
}
BENCHMARK(BM_PjdCurveEvaluation);

void BM_FullSizingAnalysis(benchmark::State& state) {
  const auto app = apps::mjpeg::make_application();
  const auto model = app.timing.to_model();
  const auto horizon = app.timing.default_horizon();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rtc::analyze_duplicated_network(model, horizon));
  }
}
BENCHMARK(BM_FullSizingAnalysis)->Unit(benchmark::kMicrosecond);

void BM_DetectionLatencyBound(benchmark::State& state) {
  rtc::PJDLowerCurve lower(rtc::PJD::from_ms(30, 30, 30));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rtc::detection_latency_bound_silence(lower, 4, rtc::from_ms(3000.0)));
  }
}
BENCHMARK(BM_DetectionLatencyBound)->Unit(benchmark::kMicrosecond);

void BM_MjpegEncodeFrame(benchmark::State& state) {
  const auto frame = apps::generate_frame(320, 240, 1, 2014);
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::mjpeg::encode_frame(frame, 75));
  }
}
BENCHMARK(BM_MjpegEncodeFrame)->Unit(benchmark::kMillisecond);

void BM_GpcAnalysis(benchmark::State& state) {
  rtc::PJDUpperCurve upper(rtc::PJD::from_ms(10, 5, 10));
  rtc::PJDLowerCurve lower(rtc::PJD::from_ms(10, 5, 10));
  rtc::RateLatencyCurve service(rtc::from_ms(4.0), rtc::from_ms(2.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rtc::gpc_analyze(upper, lower, service, rtc::from_ms(500.0)));
  }
}
BENCHMARK(BM_GpcAnalysis)->Unit(benchmark::kMillisecond);

// --- online-RTC estimator cost ---------------------------------------------
// Per-event cost of the empirical-curve machinery: the monotone-pointer
// update across an 8-level lattice (amortized O(levels) with no allocation
// in steady state), alone and with the Eq. (2) conformance check on top.

void BM_CurveEstimatorAddEvent(benchmark::State& state) {
  rtc::online::CurveEstimator estimator(
      {.base_delta = rtc::from_ms(10.0), .levels = 8});
  rtc::TimeNs t = 0;
  for (auto _ : state) {
    estimator.add_event(t);
    benchmark::DoNotOptimize(estimator.window_count(0));
    t += 9'999'937;  // ~one period, prime-offset so windows keep sliding
  }
}
BENCHMARK(BM_CurveEstimatorAddEvent);

void BM_CurveEstimatorAddEventChecked(benchmark::State& state) {
  const rtc::PJD model = rtc::PJD::from_ms(10, 20, 0);
  rtc::online::CurveEstimator estimator(
      {.base_delta = model.period, .levels = 8});
  const auto curves = rtc::ArrivalCurvePair::from_pjd(model);
  rtc::online::ConformanceChecker checker(estimator, curves.lower.get(),
                                          curves.upper.get());
  rtc::TimeNs t = 0;
  for (auto _ : state) {
    estimator.add_event(t);
    benchmark::DoNotOptimize(checker.check(estimator));
    t += 9'999'937;
  }
}
BENCHMARK(BM_CurveEstimatorAddEventChecked);

// --- trace-spine cost ------------------------------------------------------
// Four regimes of the same emit site. The baseline loop body (no emit at
// all) is exactly what a SCCFT_TRACE_COMPILED_OUT build pays; the
// no-subscriber case is the compiled-in fast path (one load + AND + branch);
// the ring/CSV cases pay full dispatch into a sink.

void BM_TraceEmitBaseline(benchmark::State& state) {
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(++t);
  }
}
BENCHMARK(BM_TraceEmitBaseline);

void BM_TraceEmitNoSubscriber(benchmark::State& state) {
  sim::Simulator sim;
  trace::TraceBus& bus = sim.trace();
  const trace::SubjectId subject = bus.intern("bench");
  std::int64_t t = 0;
  for (auto _ : state) {
    SCCFT_TRACE(bus, trace::EventKind::kEnqueue, subject, t, t, 3);
    benchmark::DoNotOptimize(++t);
  }
}
BENCHMARK(BM_TraceEmitNoSubscriber);

void BM_TraceEmitRingBuffer(benchmark::State& state) {
  sim::Simulator sim;
  trace::TraceBus& bus = sim.trace();
  const trace::SubjectId subject = bus.intern("bench");
  trace::RingBufferSink ring;
  bus.subscribe(&ring, trace::kFlightRecorderMask);
  std::int64_t t = 0;
  for (auto _ : state) {
    SCCFT_TRACE(bus, trace::EventKind::kEnqueue, subject, t, t, 3);
    benchmark::DoNotOptimize(++t);
  }
  bus.unsubscribe(&ring);
}
BENCHMARK(BM_TraceEmitRingBuffer);

void BM_TraceEmitCsvSink(benchmark::State& state) {
  sim::Simulator sim;
  trace::TraceBus& bus = sim.trace();
  const trace::SubjectId subject = bus.intern("bench");
  trace::CsvSink csv(bus);
  bus.subscribe(&csv, trace::kFlightRecorderMask);
  std::int64_t t = 0;
  for (auto _ : state) {
    SCCFT_TRACE(bus, trace::EventKind::kEnqueue, subject, t, t, 3);
    benchmark::DoNotOptimize(++t);
    // Bound the event buffer; clear() keeps the vector's capacity, so after
    // the first batch this is an amortized pointer reset.
    if ((t & 0xFFFF) == 0) csv.clear();
  }
  bus.unsubscribe(&csv);
}
BENCHMARK(BM_TraceEmitCsvSink);

// --- end-to-end trace-overhead gate ---------------------------------------

/// One timed MJPEG experiment run; returns wall seconds.
double timed_run(apps::ExperimentRunner& runner, apps::ExperimentOptions& options,
                 apps::ExperimentResult* result_out = nullptr) {
  const auto start = std::chrono::steady_clock::now();
  auto result = runner.run(options);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (result_out != nullptr) *result_out = std::move(result);
  return elapsed.count();
}

/// Gate: a ring-buffer flight recorder (kFlightRecorderMask — everything but
/// the scheduler firehose) must stay cheap on the MJPEG reference run.
/// Interleaved min-of-N filters scheduler noise; extra rounds are only spent
/// if the first verdict is over the line.
///
/// Budget calibration (same reasoning as the online gate below): the sink's
/// cost is per traced event, so after the DES-kernel overhaul shrank the
/// run's wall time ~10x, a tight percentage budget measures kernel speed and
/// machine load more than sink cost. Two caps:
///   * 12% relative, end to end — integration sanity. The batched staging
///     path sits at ~1-7% across idle and loaded hosts (the early-exit keeps
///     near-cap rounds cheap); the end-to-end delta is dominated by machine
///     load (cache/bandwidth contention), so the cap is deliberately loose.
///   * 16 ns per staged emit, hot loop — the cost teeth. A tight L1-resident
///     loop of SCCFT_TRACE into a subscribed ring sink measures the staging
///     path itself (~8 ns/emit: a push_back plus an amortized whole-buffer
///     on_batch flush) without end-to-end load sensitivity.
int check_trace_overhead() {
  apps::ExperimentRunner runner(apps::mjpeg::make_application());
  apps::ExperimentOptions options;
  options.run_periods = 240;
  options.seed = 1;

  // Warm-up: populates the runner's payload/transform caches, so the timed
  // runs below are pure simulation + instrumentation.
  apps::ExperimentResult untraced;
  (void)timed_run(runner, options, &untraced);

  trace::RingBufferSink ring;
  constexpr double kMaxRatio = 1.12;
  constexpr double kMaxNsPerEmit = 16.0;
  constexpr int kRepsPerRound = 5;
  constexpr int kMaxRounds = 3;
  double best_off = 1e30, best_ring = 1e30;
  apps::ExperimentResult traced;
  int traced_runs = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    for (int rep = 0; rep < kRepsPerRound; ++rep) {
      options.trace_sink = nullptr;
      best_off = std::min(best_off, timed_run(runner, options));
      options.trace_sink = &ring;
      options.trace_mask = trace::kFlightRecorderMask;
      best_ring = std::min(best_ring, timed_run(runner, options, &traced));
      ++traced_runs;
      options.trace_sink = nullptr;
    }
    if (best_ring <= best_off * kMaxRatio) break;
  }

  const double overhead_pct = (best_ring / best_off - 1.0) * 100.0;
  // total_events() spans the sink's lifetime (every traced rep), so divide
  // down to one run's worth for the report.
  const double events_per_run =
      static_cast<double>(ring.total_events()) / traced_runs;
  std::cout << "trace overhead gate: untraced min "
            << static_cast<long long>(best_off * 1e6) << " us, ring-sink min "
            << static_cast<long long>(best_ring * 1e6) << " us ("
            << overhead_pct << "% overhead, "
            << static_cast<long long>(events_per_run) << " events/run)\n";

  // Hot-loop per-emit cost of the staged path (load-stable, unlike the
  // end-to-end delta): min over reps of a tight emit loop into the ring.
  double best_emit_ns = 1e30;
  {
    sim::Simulator hot_sim;
    trace::TraceBus& hot_bus = hot_sim.trace();
    const trace::SubjectId subject = hot_bus.intern("gate");
    trace::RingBufferSink hot_ring;
    hot_bus.subscribe(&hot_ring, trace::kFlightRecorderMask);
    constexpr std::int64_t kEmits = 1'000'000;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (std::int64_t t = 0; t < kEmits; ++t) {
        SCCFT_TRACE(hot_bus, trace::EventKind::kEnqueue, subject, t, t, 3);
      }
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      best_emit_ns = std::min(best_emit_ns, elapsed.count() * 1e9 / kEmits);
    }
    hot_bus.unsubscribe(&hot_ring);
  }
  std::cout << "trace overhead gate: " << best_emit_ns
            << " ns per staged emit, hot loop (budget " << kMaxNsPerEmit
            << ")\n";

  if (untraced.output_checksums != traced.output_checksums) {
    std::cout << "FAIL: tracing changed the output stream\n";
    return 1;
  }
  if (best_ring > best_off * kMaxRatio) {
    std::cout << "FAIL: ring-buffer sink exceeds the 12% relative budget\n";
    return 1;
  }
  if (best_emit_ns > kMaxNsPerEmit) {
    std::cout << "FAIL: staged emit exceeds the hot-loop per-emit budget\n";
    return 1;
  }
  std::cout << "PASS: ring-buffer flight recorder within budget\n";
  return 0;
}

// --- online-monitor overhead gate ------------------------------------------

/// Gate: attaching the online RTC monitor (estimators + conformance checks on
/// producer/r1.out/r2.out) to a full MJPEG run must stay within budget and
/// must not perturb the output stream.
///
/// Budget calibration. The monitor's cost is fixed per observed emission
/// (~1k emissions/run regardless of how fast the kernel executes them), so a
/// pure percentage budget conflates kernel speed with monitor cost: after the
/// DES-kernel overhaul the same 240-period run finishes ~10x faster, and the
/// original 3%-of-wall-time allowance (~45 us) fell below the irreducible
/// integration cost alone (bus dispatch of ~956 events + the finalize-time
/// redimension report come to ~50 us with the estimators doing *zero* work).
/// The gate therefore checks two things:
///   * a relative cap of 25%, end to end — loose enough to be meaningful on
///     the fast kernel, and empirically stable across machine-load regimes
///     (the fused estimator path sits at ~15-21% on loaded and idle hosts
///     alike, while the pre-fusion implementation sat at ~28%);
///   * a hot-loop cap of 180 ns per emission through the full bus+monitor
///     path (three streams, 8-level lattice each) — the load-stable cost
///     teeth. The fused single-pass estimator+checker sits at ~90-100 ns;
///     the pre-fusion two-pass implementation sat at ~260 ns and fails.
/// The end-to-end delta per observed emission is printed as a diagnostic but
/// not gated: it is dominated by cache contention with the co-running MJPEG
/// pipeline and swings 2x with machine load.
///
/// With SCCFT_TRACE_COMPILED_OUT the kEmission events the monitor feeds on do
/// not exist, so the gate asserts the stronger property instead: zero observed
/// events (and therefore literally no monitor work on the data path).
int check_online_overhead() {
  apps::ExperimentRunner runner(apps::mjpeg::make_application());
  apps::ExperimentOptions options;
  options.run_periods = 240;
  options.seed = 1;

  // Warm-up (monitor off): populates the runner's payload/transform caches.
  apps::ExperimentResult off_result;
  (void)timed_run(runner, options, &off_result);

#ifdef SCCFT_TRACE_COMPILED_OUT
  options.online_monitor = true;
  apps::ExperimentResult on_result;
  (void)timed_run(runner, options, &on_result);
  std::uint64_t observed = 0;
  for (const auto& stream : on_result.online_streams) observed += stream.events;
  std::cout << "online overhead gate: data-path tracing compiled out, monitor "
            << "observed " << observed << " events across "
            << on_result.online_streams.size() << " streams\n";
  if (observed != 0) {
    std::cout << "FAIL: compiled-out build still delivered emission events\n";
    return 1;
  }
  if (off_result.output_checksums != on_result.output_checksums) {
    std::cout << "FAIL: the online monitor changed the output stream\n";
    return 1;
  }
  std::cout << "PASS: zero events observed — the monitor is free by construction\n";
  return 0;
#else
  constexpr double kMaxRatio = 1.25;
  constexpr double kMaxHotNsPerEmission = 180.0;
  constexpr int kRepsPerRound = 5;
  constexpr int kMaxRounds = 3;
  double best_off = 1e30, best_on = 1e30;
  apps::ExperimentResult on_result;
  for (int round = 0; round < kMaxRounds; ++round) {
    for (int rep = 0; rep < kRepsPerRound; ++rep) {
      options.online_monitor = false;
      best_off = std::min(best_off, timed_run(runner, options));
      options.online_monitor = true;
      best_on = std::min(best_on, timed_run(runner, options, &on_result));
      options.online_monitor = false;
    }
    if (best_on <= best_off * kMaxRatio) break;
  }

  std::uint64_t observed = 0;
  bool violated = false;
  for (const auto& stream : on_result.online_streams) {
    observed += stream.events;
    if (stream.first_violation) violated = true;
  }
  const double overhead_pct = (best_on / best_off - 1.0) * 100.0;
  std::cout << "online overhead gate: monitor-off min "
            << static_cast<long long>(best_off * 1e6) << " us, monitor-on min "
            << static_cast<long long>(best_on * 1e6) << " us (" << overhead_pct
            << "% overhead, " << observed << " events observed)\n";

  if (observed == 0) {
    std::cout << "FAIL: the monitor observed no emissions (wiring broken?)\n";
    return 1;
  }
  const double ns_per_event =
      (best_on - best_off) * 1e9 / static_cast<double>(observed);
  std::cout << "online overhead gate: " << ns_per_event
            << " ns per observed emission end to end (diagnostic)\n";

  // Hot-loop per-emission cost of the full bus -> monitor -> fused
  // estimator+checker path, three streams as in the experiment wiring.
  double best_hot_ns = 1e30;
  {
    const auto app = apps::mjpeg::make_application();
    const rtc::TimeNs period = app.timing.producer.period;
    trace::TraceBus hot_bus;
    const rtc::online::LatticeConfig lattice{.base_delta = period, .levels = 8};
    auto stream = [](std::string subject, int replica, const rtc::PJD& model) {
      auto curves = rtc::ArrivalCurvePair::from_pjd(model);
      rtc::online::StreamSpec spec;
      spec.name = subject;
      spec.subject = std::move(subject);
      spec.replica = replica;
      spec.design_lower = std::move(curves.lower);
      spec.design_upper = std::move(curves.upper);
      return spec;
    };
    std::vector<rtc::online::StreamSpec> specs;
    specs.push_back(stream("producer", -1, app.timing.producer));
    specs.push_back(stream("r1.out", 0, app.timing.replica_out[0]));
    specs.push_back(stream("r2.out", 1, app.timing.replica_out[1]));
    rtc::online::OnlineMonitor monitor(hot_bus, lattice, std::move(specs));
    const trace::SubjectId subjects[3] = {hot_bus.intern("producer"),
                                          hot_bus.intern("r1.out"),
                                          hot_bus.intern("r2.out")};
    constexpr int kEmissions = 717;
    rtc::TimeNs t = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (int k = 0; k < kEmissions; ++k) {
        // One conformant emission per stream per period, round-robin with a
        // small phase offset so every window keeps sliding.
        t += period / 3;
        hot_bus.emit(trace::EventKind::kEmission, subjects[k % 3],
                     t + (k % 3) * 1000);
      }
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      best_hot_ns = std::min(best_hot_ns, elapsed.count() * 1e9 / kEmissions);
    }
  }
  std::cout << "online overhead gate: " << best_hot_ns
            << " ns per emission through bus+monitor, hot loop (budget "
            << kMaxHotNsPerEmission << ")\n";
  if (violated) {
    std::cout << "FAIL: conformance violation on a fault-free conformant run\n";
    return 1;
  }
  if (off_result.output_checksums != on_result.output_checksums) {
    std::cout << "FAIL: the online monitor changed the output stream\n";
    return 1;
  }
  if (best_on > best_off * kMaxRatio) {
    std::cout << "FAIL: online monitor exceeds the 25% relative budget\n";
    return 1;
  }
  if (best_hot_ns > kMaxHotNsPerEmission) {
    std::cout << "FAIL: online monitor exceeds the hot-loop per-emission "
              << "budget\n";
    return 1;
  }
  std::cout << "PASS: online RTC monitor within budget, zero false "
            << "positives\n";
  return 0;
#endif
}

// --- parallel-campaign determinism gate ------------------------------------

/// Gate: the identical MJPEG fault campaign run at --jobs 1 and --jobs 4 must
/// fold to byte-identical results (merged registry CSV, seed provenance,
/// detection-latency samples). Speedup is reported but not gated: on a
/// single-core CI runner the parallel path can only tie.
int check_parallel_campaign() {
  apps::ExperimentRunner runner(apps::mjpeg::make_application());
  apps::ExperimentOptions options;
  options.run_periods = 240;
  options.fault_after_periods = 150;
  constexpr int kCampaignRuns = 8;

  // Warm-up run populates the runner's shared payload/transform caches so the
  // two timed campaigns below start from the same cache state.
  {
    apps::ExperimentOptions warm = options;
    warm.seed = 1;
    (void)runner.run(warm);
  }

  const auto timed_campaign = [&](int jobs, double* seconds) {
    const auto start = std::chrono::steady_clock::now();
    auto campaign = bench::run_fault_campaign(runner, options,
                                              ft::ReplicaIndex::kReplica1,
                                              kCampaignRuns, jobs);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    *seconds = elapsed.count();
    return campaign;
  };

  double serial_s = 0.0, parallel_s = 0.0;
  const auto serial = timed_campaign(1, &serial_s);
  const auto parallel = timed_campaign(4, &parallel_s);

  std::cout << "parallel campaign gate: " << kCampaignRuns << " runs, --jobs 1 in "
            << static_cast<long long>(serial_s * 1e3) << " ms, --jobs 4 in "
            << static_cast<long long>(parallel_s * 1e3) << " ms (speedup "
            << (parallel_s > 0.0 ? serial_s / parallel_s : 0.0) << "x, "
            << std::thread::hardware_concurrency() << " hardware threads)\n";

  bool ok = true;
  if (serial.seeds != parallel.seeds) {
    std::cout << "FAIL: seed provenance differs between job counts\n";
    ok = false;
  }
  if (serial.first_latency_ms.samples() != parallel.first_latency_ms.samples()) {
    std::cout << "FAIL: detection-latency samples differ between job counts\n";
    ok = false;
  }
  if (serial.detected != parallel.detected ||
      serial.false_positives != parallel.false_positives ||
      serial.correct_replica != parallel.correct_replica) {
    std::cout << "FAIL: detection tallies differ between job counts\n";
    ok = false;
  }
  if (serial.merged.render_csv() != parallel.merged.render_csv()) {
    std::cout << "FAIL: merged metrics registries are not byte-identical\n";
    ok = false;
  }
  if (!ok) return 1;
  std::cout << "PASS: campaign results byte-identical at --jobs 1 and --jobs 4\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--check-trace-overhead") {
      return check_trace_overhead();
    }
    if (std::string_view(argv[i]) == "--check-parallel-campaign") {
      return check_parallel_campaign();
    }
    if (std::string_view(argv[i]) == "--check-online-overhead") {
      return check_online_overhead();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
