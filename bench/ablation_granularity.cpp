// Ablation F: token granularity (paper Section 4.2: "it is possible to
// reduce token sizes by restructuring the application: i.e., split input
// frames into parts ... such adjustments depend on the application and the
// fault-detection latency requirements").
//
// Restructures the ADPCM application at several granularities — the same
// audio throughput carried as fewer/larger or more/smaller tokens (period
// and sample count scale together) — and measures detection latency.
// Expected shape: latency scales linearly with the token period (detection
// costs a fixed number of *tokens*), while bytes/second stay constant.
#include <iostream>

#include "apps/adpcm/adpcm_codec.hpp"
#include "apps/common/generators.hpp"
#include "bench/campaign.hpp"
#include "util/csv.hpp"

namespace {

using namespace sccft;

/// ADPCM variant: `samples` per token at `period_ms` (both scaled from the
/// paper's 1536 @ 6.3 ms so the audio rate is constant).
apps::ApplicationSpec make_scaled_adpcm(int samples, double period_ms) {
  apps::ApplicationSpec app;
  app.name = "adpcm" + std::to_string(samples);
  app.topology = apps::ReplicaTopology::kTwoStage;
  app.input_token_bytes = samples * 2;
  app.output_token_bytes = samples * 2;
  app.stage_compute_time = rtc::from_ms(period_ms / 32.0);

  const double scale = period_ms / 6.3;
  app.timing.producer = rtc::PJD::from_ms(period_ms, 0.1 * scale, period_ms);
  app.timing.replica_in = app.timing.replica_out = {
      rtc::PJD::from_ms(period_ms, 0.8 * scale, period_ms),
      rtc::PJD::from_ms(period_ms, 2.0 * period_ms, period_ms)};
  app.timing.consumer = rtc::PJD::from_ms(period_ms, 0.1 * scale, period_ms);

  app.make_input = [samples](std::uint64_t index) -> apps::Bytes {
    return apps::samples_to_bytes(apps::generate_audio(
        static_cast<std::size_t>(samples),
        index * static_cast<std::uint64_t>(samples), 2014));
  };
  app.stage1 = [](apps::BytesView input) -> apps::Bytes {
    return apps::adpcm::encode(
        apps::bytes_to_samples(apps::Bytes(input.begin(), input.end())));
  };
  app.stage2 = [](apps::BytesView encoded) -> apps::Bytes {
    return apps::samples_to_bytes(apps::adpcm::decode(encoded));
  };
  return app;
}

}  // namespace

int main() {
  util::Table table(
      "Ablation F: token granularity at constant audio rate (ADPCM, 20 runs each)");
  table.set_header({"Samples/token", "Period", "D", "Detection latency (min/mean/max)",
                    "Bound (selector)"});
  util::CsvWriter csv({"samples", "period_ms", "D", "mean_latency_ms", "bound_ms"});

  for (const auto& [samples, period_ms] :
       {std::pair{384, 1.575}, {768, 3.15}, {1536, 6.3}, {3072, 12.6}}) {
    apps::ExperimentRunner runner(make_scaled_adpcm(samples, period_ms));
    apps::ExperimentOptions options;
    options.run_periods = 260;
    options.fault_after_periods = 160;
    const auto campaign =
        bench::run_fault_campaign(runner, options, ft::ReplicaIndex::kReplica2);

    const auto& sizing = campaign.sizing;
    table.add_row({std::to_string(samples),
                   util::format_double(period_ms, 2) + " ms",
                   std::to_string(sizing.selector_threshold),
                   bench::stat_row(campaign.first_latency_ms),
                   util::format_double(rtc::to_ms(sizing.selector_latency_bound), 1) +
                       " ms"});
    csv.add_row({std::to_string(samples), util::format_double(period_ms, 3),
                 std::to_string(sizing.selector_threshold),
                 campaign.first_latency_ms.empty()
                     ? "-1"
                     : util::format_double(campaign.first_latency_ms.mean(), 3),
                 util::format_double(rtc::to_ms(sizing.selector_latency_bound), 3)});
  }
  std::cout << table << "\n";
  if (csv.write_file("/tmp/sccft_ablation_granularity.csv")) {
    std::cout << "Series written to /tmp/sccft_ablation_granularity.csv\n";
  }
  std::cout
      << "Same audio throughput, different token sizes: D is granularity-\n"
         "invariant (the jitter/period ratio is fixed), so detection costs a\n"
         "fixed number of tokens and the latency scales linearly with the\n"
         "token period — halve the tokens, halve the detection latency, at the\n"
         "cost of twice the arbitration executions per second. Exactly the\n"
         "paper's restructuring trade-off.\n";
  return 0;
}
