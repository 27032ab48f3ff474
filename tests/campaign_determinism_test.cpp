// Parallel-campaign determinism tests: the worker-pool executor
// (util::parallel_for_ordered), the per-thread log capture it relies on, and
// the end-to-end guarantee that a campaign folded from parallel workers is
// byte-identical to the serial campaign at any job count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/adpcm/app.hpp"
#include "apps/mjpeg/app.hpp"
#include "apps/common/experiment.hpp"
#include "bench/campaign.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace sccft {
namespace {

// --- parallel_for_ordered --------------------------------------------------

TEST(ParallelForOrdered, SerialPathRunsInIndexOrder) {
  std::vector<int> order;
  util::parallel_for_ordered(5, 1, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForOrdered, EveryIndexRunsExactlyOnce) {
  for (const int jobs : {1, 2, 4, 8}) {
    constexpr int kN = 64;
    std::vector<std::atomic<int>> hits(kN);
    util::parallel_for_ordered(kN, jobs, [&](int i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "jobs=" << jobs << " index=" << i;
    }
  }
}

TEST(ParallelForOrdered, ZeroTasksIsANoop) {
  util::parallel_for_ordered(0, 4, [](int) { FAIL() << "must not be called"; });
}

TEST(ParallelForOrdered, MoreJobsThanTasksIsFine) {
  std::vector<std::atomic<int>> hits(3);
  util::parallel_for_ordered(3, 16, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
  }
}

TEST(ParallelForOrdered, LowestIndexExceptionWinsAtAnyJobCount) {
  // Indices 3 and 7 both throw; the rethrown exception must be index 3's so
  // a failing campaign reports the same error at --jobs 1 and --jobs N.
  for (const int jobs : {1, 2, 4}) {
    try {
      util::parallel_for_ordered(10, jobs, [](int i) {
        if (i == 3 || i == 7) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << "jobs=" << jobs;
    }
  }
}

TEST(ParallelForOrdered, RemainingTasksStillRunAfterAFailure) {
  std::vector<std::atomic<int>> hits(8);
  EXPECT_THROW(util::parallel_for_ordered(8, 2,
                                          [&](int i) {
                                            hits[static_cast<std::size_t>(i)]
                                                .fetch_add(1);
                                            if (i == 0) {
                                              throw std::runtime_error("boom");
                                            }
                                          }),
               std::runtime_error);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index=" << i;
  }
}

// --- ScopedLogCapture ------------------------------------------------------

TEST(ScopedLogCapture, CapturesThisThreadsLines) {
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  util::ScopedLogCapture capture;
  util::log_line(util::LogLevel::kInfo, "test", "captured line");
  util::set_log_level(saved);
  const std::string text = capture.take();
  EXPECT_NE(text.find("captured line"), std::string::npos);
  EXPECT_NE(text.find("test"), std::string::npos);
  EXPECT_TRUE(capture.take().empty());  // take() drains the buffer
}

TEST(ScopedLogCapture, WorkerCapturesAreIndependent) {
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  std::vector<std::string> captured(8);
  util::parallel_for_ordered(8, 4, [&](int i) {
    util::ScopedLogCapture capture;
    util::log_line(util::LogLevel::kInfo, "worker", "run " + std::to_string(i));
    captured[static_cast<std::size_t>(i)] = capture.take();
  });
  util::set_log_level(saved);
  for (int i = 0; i < 8; ++i) {
    const std::string& text = captured[static_cast<std::size_t>(i)];
    EXPECT_NE(text.find("run " + std::to_string(i)), std::string::npos)
        << "index=" << i;
    // Exactly one line: no cross-thread bleed-through.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << "index=" << i;
  }
}

TEST(ScopedLogCapture, NestsPerThread) {
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  util::ScopedLogCapture outer;
  util::log_line(util::LogLevel::kInfo, "test", "outer line");
  {
    util::ScopedLogCapture inner;
    util::log_line(util::LogLevel::kInfo, "test", "inner line");
    const std::string text = inner.take();
    EXPECT_NE(text.find("inner line"), std::string::npos);
    EXPECT_EQ(text.find("outer line"), std::string::npos);
  }
  util::log_line(util::LogLevel::kInfo, "test", "outer again");
  util::set_log_level(saved);
  const std::string text = outer.take();
  EXPECT_NE(text.find("outer line"), std::string::npos);
  EXPECT_NE(text.find("outer again"), std::string::npos);
  EXPECT_EQ(text.find("inner line"), std::string::npos);
}

// --- end-to-end campaign determinism ---------------------------------------

// The tentpole guarantee: a campaign fanned out over N workers folds to
// results byte-identical to the serial campaign. ADPCM is the cheapest app;
// short runs keep this inside unit-test budget.

apps::ExperimentOptions campaign_options() {
  apps::ExperimentOptions options;
  options.run_periods = 80;
  options.fault_after_periods = 40;
  return options;
}

TEST(CampaignDeterminism, FaultCampaignIdenticalAcrossJobCounts) {
  // ADPCM, and MJPEG: the Table 2 reference application.
  for (apps::ApplicationSpec spec :
       {apps::adpcm::make_application(), apps::mjpeg::make_application()}) {
    const std::string app = spec.name;
    apps::ExperimentRunner runner(std::move(spec));
    const auto serial = bench::run_fault_campaign(
        runner, campaign_options(), ft::ReplicaIndex::kReplica1, 6, 1);
    for (const int jobs : {2, 4}) {
      const auto parallel = bench::run_fault_campaign(
          runner, campaign_options(), ft::ReplicaIndex::kReplica1, 6, jobs);
      SCOPED_TRACE(app + " jobs=" + std::to_string(jobs));
      EXPECT_EQ(parallel.seeds, serial.seeds);
      EXPECT_EQ(parallel.detected, serial.detected);
      EXPECT_EQ(parallel.correct_replica, serial.correct_replica);
      EXPECT_EQ(parallel.false_positives, serial.false_positives);
      EXPECT_EQ(parallel.first_latency_ms.samples(), serial.first_latency_ms.samples());
      EXPECT_EQ(parallel.replicator_latency_ms.samples(),
                serial.replicator_latency_ms.samples());
      EXPECT_EQ(parallel.selector_latency_ms.samples(),
                serial.selector_latency_ms.samples());
      // The merged registry is the source of every table/CSV number: its
      // rendered form must match byte for byte.
      EXPECT_EQ(parallel.merged.render_csv(), serial.merged.render_csv());
    }
  }
}

TEST(CampaignDeterminism, FaultFreeCampaignIdenticalAcrossJobCounts) {
  apps::ExperimentRunner runner(apps::adpcm::make_application());
  auto options = campaign_options();
  const auto serial = bench::run_fault_free_campaign(runner, options, 6, 1);
  const auto parallel = bench::run_fault_free_campaign(runner, options, 6, 4);
  EXPECT_EQ(parallel.seeds, serial.seeds);
  EXPECT_EQ(parallel.false_positives, serial.false_positives);
  EXPECT_EQ(parallel.max_fill_r1, serial.max_fill_r1);
  EXPECT_EQ(parallel.max_fill_r2, serial.max_fill_r2);
  EXPECT_EQ(parallel.max_fill_s1, serial.max_fill_s1);
  EXPECT_EQ(parallel.max_fill_s2, serial.max_fill_s2);
  EXPECT_EQ(parallel.interarrival_ms.samples(), serial.interarrival_ms.samples());
  EXPECT_EQ(parallel.merged.render_csv(), serial.merged.render_csv());
}

TEST(CampaignDeterminism, ParallelCampaignsRejectRunLocalSinks) {
  // Run-local sinks (trace_sink, vcd_path) cannot be shared by concurrent
  // runs; the executor must refuse rather than race.
  apps::ExperimentRunner runner(apps::adpcm::make_application());
  auto options = campaign_options();
  options.vcd_path = "/tmp/sccft_campaign_determinism.vcd";
  EXPECT_THROW(bench::run_campaign_runs(runner, options, 2, 2),
               util::ContractViolation);
  // Serial execution still allows them.
  const auto runs = bench::run_campaign_runs(runner, options, 1, 1);
  EXPECT_EQ(runs.size(), 1u);
}

}  // namespace
}  // namespace sccft
