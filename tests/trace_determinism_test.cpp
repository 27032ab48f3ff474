// Determinism oracle for the trace spine (Invariant Checklist): two MJPEG
// fault-campaign runs with the same seed must serialize byte-identical trace
// streams and identical metrics registries, a different seed must not, and
// attaching a sink must not perturb the experiment's results (no observer
// effect — the same guarantee a SCCFT_TRACE_COMPILED_OUT build relies on).
#include <gtest/gtest.h>

#include <utility>

#include "apps/mjpeg/app.hpp"
#include "apps/common/experiment.hpp"
#include "trace/sinks.hpp"

namespace sccft::apps {
namespace {

ExperimentOptions fault_options(std::uint64_t seed) {
  ExperimentOptions options;
  options.seed = seed;
  options.run_periods = 60;
  options.fault_after_periods = 30;
  options.inject_fault = true;
  options.faulty_replica = ft::ReplicaIndex::kReplica1;
  return options;
}

TEST(TraceDeterminism, SameSeedFaultCampaignsSerializeByteIdenticalStreams) {
  ExperimentRunner runner(mjpeg::make_application());

  trace::BinarySink first_stream, second_stream;
  ExperimentOptions options = fault_options(7);

  options.trace_sink = &first_stream;
  const auto first = runner.run(options);
  options.trace_sink = &second_stream;
  const auto second = runner.run(options);

  ASSERT_GT(first_stream.event_count(), 0u);
  EXPECT_EQ(first_stream.event_count(), second_stream.event_count());
  EXPECT_EQ(first_stream.data(), second_stream.data());

  // The quantitative record agrees byte-for-byte too.
  EXPECT_EQ(first.metrics->render_csv(), second.metrics->render_csv());
  EXPECT_EQ(first.output_checksums, second.output_checksums);
  EXPECT_EQ(first.fault_injected_at, second.fault_injected_at);
}

TEST(TraceDeterminism, DifferentSeedsDiverge) {
  ExperimentRunner runner(mjpeg::make_application());

  trace::BinarySink first_stream, second_stream;
  ExperimentOptions options = fault_options(7);
  options.trace_sink = &first_stream;
  (void)runner.run(options);

  options = fault_options(8);
  options.trace_sink = &second_stream;
  (void)runner.run(options);

  // Seeds shift the fault phase and every shaper draw; the streams must not
  // collide (otherwise the oracle would vacuously pass).
  EXPECT_NE(first_stream.data(), second_stream.data());
}

TEST(TraceDeterminism, AttachingSinksDoesNotPerturbResults) {
  ExperimentRunner runner(mjpeg::make_application());

  ExperimentOptions options = fault_options(7);
  const auto untraced = runner.run(options);

  // Two observer configurations: every event into a byte stream, and the
  // flight recorder (the ring at kFlightRecorderMask, everything but the
  // scheduler firehose) on the bus's batched path.
  trace::BinarySink stream;
  trace::RingBufferSink ring(512);
  const std::pair<trace::Sink*, std::uint32_t> observers[] = {
      {&stream, trace::kAllEvents}, {&ring, trace::kFlightRecorderMask}};
  for (const auto& [sink, mask] : observers) {
    options.trace_sink = sink;
    options.trace_mask = mask;
    const auto traced = runner.run(options);

    // Everything Table 2 reads must be identical with and without observers
    // — the compiled-out build (SCCFT_TRACE_COMPILED_OUT) leans on exactly
    // this — and so must the schedule itself.
    EXPECT_EQ(untraced.output_checksums, traced.output_checksums);
    EXPECT_EQ(untraced.events_processed, traced.events_processed);
    EXPECT_EQ(untraced.fill_r1, traced.fill_r1);
    EXPECT_EQ(untraced.fill_r2, traced.fill_r2);
    EXPECT_EQ(untraced.fill_s1, traced.fill_s1);
    EXPECT_EQ(untraced.fill_s2, traced.fill_s2);
    EXPECT_EQ(untraced.consumer_tokens, traced.consumer_tokens);
    EXPECT_EQ(untraced.consumer_stalls, traced.consumer_stalls);
    EXPECT_EQ(untraced.replicator_latency, traced.replicator_latency);
    EXPECT_EQ(untraced.selector_latency, traced.selector_latency);
    EXPECT_EQ(untraced.metrics->render_csv(), traced.metrics->render_csv());
  }
  EXPECT_GT(stream.event_count(), 0u);
  EXPECT_GT(ring.total_events(), 0u);
}

}  // namespace
}  // namespace sccft::apps
