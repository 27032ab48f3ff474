#include "apps/h264/app.hpp"

#include "apps/h264/h264_codec.hpp"

namespace sccft::apps::h264 {

ApplicationSpec make_application(std::uint64_t content_seed) {
  ApplicationSpec app;
  app.name = "h264";
  app.topology = ReplicaTopology::kSingleStage;
  app.input_token_bytes = kFrameWidth * kFrameHeight;  // raw frame in
  app.output_token_bytes = 8 * 1024;                   // nominal encoded size
  app.stage_compute_time = rtc::from_ms(2.5);

  // Asymmetric replica jitters (see header).
  app.timing.producer = rtc::PJD::from_ms(30, 1, 30);
  app.timing.replica_in = app.timing.replica_out = {rtc::PJD::from_ms(30, 4, 30),
                                                    rtc::PJD::from_ms(30, 20, 30)};
  app.timing.consumer = rtc::PJD::from_ms(30, 1, 30);

  app.make_input = [content_seed](std::uint64_t index) -> Bytes {
    return generate_frame(kFrameWidth, kFrameHeight, index, content_seed).pixels;
  };
  app.transform = [](BytesView input) -> Bytes {
    Frame frame{kFrameWidth, kFrameHeight, Bytes(input.begin(), input.end())};
    return encode_frame(frame, kQp);
  };
  return app;
}

}  // namespace sccft::apps::h264
