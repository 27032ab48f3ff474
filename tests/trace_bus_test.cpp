// Trace-spine unit tests: bus subscription/masking/dispatch order, subject
// interning, the pluggable sinks (ring buffer, binary, CSV, counter, VCD),
// the metrics registry's merge semantics, and the flight recorder's
// contract-violation dump.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "trace/bus.hpp"
#include "trace/metrics.hpp"
#include "trace/sinks.hpp"
#include "util/assert.hpp"

namespace sccft::trace {
namespace {

/// Records (kind, sink tag) pairs so dispatch order is observable.
class TaggedSink final : public Sink {
 public:
  TaggedSink(int tag, std::vector<std::pair<int, EventKind>>& log)
      : tag_(tag), log_(log) {}
  void on_event(const Event& event) override { log_.emplace_back(tag_, event.kind); }

 private:
  int tag_;
  std::vector<std::pair<int, EventKind>>& log_;
};

TEST(TraceBus, InternAssignsStableInsertionOrderedIds) {
  TraceBus bus;
  EXPECT_EQ(bus.subject_name(0), "");  // id 0 is the empty subject
  const SubjectId a = bus.intern("alpha");
  const SubjectId b = bus.intern("beta");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(bus.intern("alpha"), a);  // idempotent
  EXPECT_EQ(bus.subject_name(a), "alpha");
  EXPECT_EQ(bus.subject_name(b), "beta");
  EXPECT_EQ(bus.subject_count(), 3u);
}

TEST(TraceBus, EmitReachesOnlySinksWhoseMaskMatches) {
  TraceBus bus;
  std::vector<std::pair<int, EventKind>> log;
  TaggedSink enq_only(1, log);
  TaggedSink deq_only(2, log);
  bus.subscribe(&enq_only, bit(EventKind::kEnqueue));
  bus.subscribe(&deq_only, bit(EventKind::kDequeue));

  EXPECT_TRUE(bus.wants(EventKind::kEnqueue));
  EXPECT_TRUE(bus.wants(EventKind::kDequeue));
  EXPECT_FALSE(bus.wants(EventKind::kDetection));

  bus.emit(EventKind::kEnqueue, 0, 10);
  bus.emit(EventKind::kDequeue, 0, 20);
  bus.emit(EventKind::kDetection, 0, 30);  // nobody listens: not dispatched
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], std::make_pair(1, EventKind::kEnqueue));
  EXPECT_EQ(log[1], std::make_pair(2, EventKind::kDequeue));

  bus.unsubscribe(&enq_only);
  EXPECT_FALSE(bus.wants(EventKind::kEnqueue));
  bus.emit(EventKind::kEnqueue, 0, 40);
  EXPECT_EQ(log.size(), 2u);  // unchanged
  bus.unsubscribe(&deq_only);
}

TEST(TraceBus, DispatchRunsSinksInSubscriptionOrder) {
  TraceBus bus;
  std::vector<std::pair<int, EventKind>> log;
  TaggedSink first(1, log);
  TaggedSink second(2, log);
  bus.subscribe(&first, kAllEvents);
  bus.subscribe(&second, kAllEvents);
  bus.emit(EventKind::kDetection, 0, 1);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].first, 1);
  EXPECT_EQ(log[1].first, 2);

  // Re-subscribing updates the mask in place without duplicating the sink.
  bus.subscribe(&first, bit(EventKind::kEnqueue));
  log.clear();
  bus.emit(EventKind::kDetection, 0, 2);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, 2);
  bus.unsubscribe(&first);
  bus.unsubscribe(&second);
}

/// Counts on_batch calls and records each delivered event's `a` field.
class BatchCountingSink final : public Sink {
 public:
  void on_event(const Event& event) override { delivered.push_back(event.a); }
  void on_batch(const Event* events, std::size_t count) override {
    ++batches;
    for (std::size_t i = 0; i < count; ++i) on_event(events[i]);
  }
  std::vector<std::int64_t> delivered;
  std::size_t batches = 0;
};

TEST(TraceBus, DeferredEmitsArriveOnceEachInStagedBatches) {
  // The bus stages deferred events 1024 at a time (its private
  // kStagingCapacity): N emits reach the subscriber exactly once each, in
  // order, in one batch per full staging buffer plus the tail flushed on
  // unsubscribe.
  constexpr std::size_t kStaging = 1024;
  constexpr std::int64_t kEmits = 5000;
  TraceBus bus;
  BatchCountingSink sink;
  bus.subscribe(&sink, kFlightRecorderMask, DeliveryMode::kDeferred);
  const SubjectId subject = bus.intern("bench");
  for (std::int64_t i = 0; i < kEmits; ++i) {
    bus.emit(EventKind::kEnqueue, subject, i, i);
  }
  bus.unsubscribe(&sink);

  ASSERT_EQ(sink.delivered.size(), static_cast<std::size_t>(kEmits));
  for (std::int64_t i = 0; i < kEmits; ++i) {
    ASSERT_EQ(sink.delivered[static_cast<std::size_t>(i)], i);
  }
  EXPECT_LE(sink.batches, (kEmits + kStaging - 1) / kStaging + 1);
}

TEST(RingBufferSink, KeepsTheLastCapacityEventsAndCountsDrops) {
  RingBufferSink ring(4);
  for (std::int64_t i = 0; i < 10; ++i) {
    ring.on_event(Event{i, EventKind::kEnqueue, 0, i, 0, 0});
  }
  EXPECT_EQ(ring.total_events(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().a, 6);  // oldest retained
  EXPECT_EQ(events.back().a, 9);   // newest
}

TEST(BinarySink, SerializesFixedWidthDeterministically) {
  BinarySink one, two;
  for (BinarySink* sink : {&one, &two}) {
    sink->on_event(Event{1'000, EventKind::kEnqueue, 3, 42, 7, 0});
    sink->on_event(Event{2'000, EventKind::kDetection, 4, 0, 2, -1});
  }
  EXPECT_EQ(one.event_count(), 2u);
  EXPECT_EQ(one.data().size(), 2u * 37u);  // 8 + 1 + 4 + 3*8 bytes per record
  EXPECT_EQ(one.data(), two.data());

  // Little-endian spot check: time 1000 = 0x3E8 in the first two bytes.
  EXPECT_EQ(static_cast<unsigned char>(one.data()[0]), 0xE8);
  EXPECT_EQ(static_cast<unsigned char>(one.data()[1]), 0x03);
}

TEST(CsvSink, RendersRowsWithResolvedSubjectNames) {
  TraceBus bus;
  const SubjectId subject = bus.intern("mjpeg.replicator.R1");
  CsvSink csv(bus);
  bus.subscribe(&csv, kAllEvents);
  bus.emit(EventKind::kEnqueue, subject, 5'000, 17, 2);
  bus.unsubscribe(&csv);

  const std::string rendered = csv.render();
  EXPECT_NE(rendered.find("time_ns,kind,subject,a,b,c"), std::string::npos);
  EXPECT_NE(rendered.find("5000,enqueue,mjpeg.replicator.R1,17,2,0"),
            std::string::npos);
  csv.clear();
  EXPECT_EQ(csv.event_count(), 0u);
}

TEST(CounterSink, CountsEventsPerKindIntoTheRegistry) {
  TraceBus bus;
  CounterSink counters(bus.metrics());
  bus.subscribe(&counters, kAllEvents);
  bus.emit(EventKind::kEnqueue, 0, 1);
  bus.emit(EventKind::kEnqueue, 0, 2);
  bus.emit(EventKind::kDetection, 0, 3);
  bus.unsubscribe(&counters);
  EXPECT_EQ(bus.metrics().counter("trace.events.enqueue"), 2u);
  EXPECT_EQ(bus.metrics().counter("trace.events.detection"), 1u);
  EXPECT_EQ(bus.metrics().counter("trace.events.dequeue"), 0u);
}

TEST(VcdSink, TracksFillAndFaultFlagChanges) {
  TraceBus bus;
  const SubjectId queue = bus.intern("q");
  VcdSink vcd("scope");
  vcd.watch_fill(queue, "fill");
  vcd.watch_fault(0, "fault_R1");
  const std::size_t initial = vcd.change_count();  // the time-0 declarations
  bus.subscribe(&vcd, kAllEvents);
  bus.emit(EventKind::kEnqueue, queue, 100, /*seq=*/0, /*fill=*/1);
  bus.emit(EventKind::kDetection, queue, 200, /*replica=*/0, 0);
  bus.emit(EventKind::kReintegrate, queue, 300, /*replica=*/0);
  bus.unsubscribe(&vcd);
  EXPECT_EQ(vcd.change_count(), initial + 3);
  const std::string rendered = vcd.render();
  EXPECT_NE(rendered.find("fill"), std::string::npos);
  EXPECT_NE(rendered.find("fault_R1"), std::string::npos);
}

TEST(MetricsRegistry, MergeAddsCountersMaxesGaugesAppendsSeries) {
  MetricsRegistry a, b;
  a.add("tokens", 3);
  b.add("tokens", 4);
  a.gauge_max("fill", 2);
  b.gauge_max("fill", 7);
  a.record("lat", 10);
  b.record("lat", 5);
  b.record("lat", 20);

  a.merge(b);
  EXPECT_EQ(a.counter("tokens"), 7u);
  EXPECT_EQ(a.gauge("fill"), 7);
  const Series* lat = a.find_series("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->samples(), (std::vector<std::int64_t>{10, 5, 20}));
  EXPECT_EQ(lat->min(), 5);
  EXPECT_EQ(lat->max(), 20);

  // Rendering is name-sorted, hence byte-stable across identical registries.
  MetricsRegistry c;
  c.add("tokens", 7);
  c.gauge_max("fill", 7);
  for (const std::int64_t v : {10, 5, 20}) c.record("lat", v);
  EXPECT_EQ(a.render_csv(), c.render_csv());
}

TEST(MetricsRegistry, CounterAndSeriesRefsAreStable) {
  MetricsRegistry registry;
  std::uint64_t& tokens = registry.counter_ref("tokens");
  Series& series = registry.series_ref("samples");
  for (int i = 0; i < 100; ++i) registry.add("filler." + std::to_string(i));
  tokens = 5;
  series.add(1);
  EXPECT_EQ(registry.counter("tokens"), 5u);
  ASSERT_NE(registry.find_series("samples"), nullptr);
  EXPECT_EQ(registry.find_series("samples")->count(), 1u);
}

TEST(FlightRecorder, DumpsRetainedEventsOnContractViolation) {
  const std::string path = "/tmp/sccft_flight_recorder_test.csv";
  std::remove(path.c_str());

  TraceBus bus;
  const SubjectId subject = bus.intern("doomed-channel");
  RingBufferSink ring(8);
  bus.subscribe(&ring, kFlightRecorderMask);
  install_flight_recorder(ring, bus, path);

  bus.emit(EventKind::kEnqueue, subject, 100, 1, 1);
  bus.emit(EventKind::kDetection, subject, 200, 0, 2);
  EXPECT_THROW(bus.subject_name(999), util::ContractViolation);

  uninstall_flight_recorder();
  bus.unsubscribe(&ring);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string dump((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(dump.find("doomed-channel"), std::string::npos);
  EXPECT_NE(dump.find("detection"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sccft::trace
