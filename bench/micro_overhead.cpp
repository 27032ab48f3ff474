// Micro-benchmarks (google-benchmark) for the Table 2 "Overhead" rows: the
// real CPU cost of one replicator/selector operation versus a plain FIFO,
// plus the cost of the design-time analyses and of the trace spine itself
// (per-emit cost with no subscriber / ring buffer / CSV sink).
//
// The paper reports the framework's runtime overhead as <= 0.02% of the
// application period; these benchmarks measure the arbitration-path cost in
// nanoseconds so the claim can be checked against any period. They report
// and never gate: end-to-end speed is judged by bench/perf (sccft_bench),
// whose exact work counts are pinned by tests/bench_counts.cmake.
#include <benchmark/benchmark.h>

#include "apps/mjpeg/app.hpp"
#include "apps/common/generators.hpp"
#include "apps/mjpeg/jpeg_codec.hpp"
#include "ft/replicator.hpp"
#include "ft/selector.hpp"
#include "kpn/channel.hpp"
#include "rtc/gpc.hpp"
#include "rtc/online/conformance.hpp"
#include "rtc/online/estimator.hpp"
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

}  // namespace

BENCHMARK_MAIN();
