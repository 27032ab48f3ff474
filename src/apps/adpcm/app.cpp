#include "apps/adpcm/app.hpp"

#include "apps/adpcm/adpcm_codec.hpp"
#include "apps/common/generators.hpp"

namespace sccft::apps::adpcm {

ApplicationSpec make_application(std::uint64_t content_seed) {
  ApplicationSpec app;
  app.name = "adpcm";
  app.topology = ReplicaTopology::kTwoStage;
  app.input_token_bytes = kSamplesPerToken * 2;   // 3 KB
  app.output_token_bytes = kSamplesPerToken * 2;  // 3 KB decoded
  app.stage_compute_time = rtc::from_ms(0.2);

  // Table 1 (ADPCM row); see app.hpp for the replica-2 jitter derivation.
  app.timing.producer = rtc::PJD::from_ms(6.3, 0.1, 6.3);
  app.timing.replica_in = app.timing.replica_out = {rtc::PJD::from_ms(6.3, 0.8, 6.3),
                                                    rtc::PJD::from_ms(6.3, 12.6, 6.3)};
  app.timing.consumer = rtc::PJD::from_ms(6.3, 0.1, 6.3);

  app.make_input = [content_seed](std::uint64_t index) -> Bytes {
    const auto samples = generate_audio(
        kSamplesPerToken, index * static_cast<std::uint64_t>(kSamplesPerToken),
        content_seed);
    return samples_to_bytes(samples);
  };
  app.stage1 = [](BytesView input) -> Bytes {
    return encode(bytes_to_samples(Bytes(input.begin(), input.end())));
  };
  app.stage2 = [](BytesView encoded) -> Bytes {
    return samples_to_bytes(decode(encoded));
  };
  return app;
}

}  // namespace sccft::apps::adpcm
