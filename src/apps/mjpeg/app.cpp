#include "apps/mjpeg/app.hpp"

#include "apps/mjpeg/jpeg_codec.hpp"

namespace sccft::apps::mjpeg {

ApplicationSpec make_application(std::uint64_t content_seed) {
  ApplicationSpec app;
  app.name = "mjpeg";
  app.topology = ReplicaTopology::kSplitMerge;
  app.input_token_bytes = 10 * 1024;
  app.output_token_bytes = kFrameWidth * kFrameHeight;  // 76.8 KB decoded
  app.stage_compute_time = rtc::from_ms(2.0);

  // Table 1 (MJPEG row), <period, jitter, min-distance> in ms.
  app.timing.producer = rtc::PJD::from_ms(30, 2, 30);
  app.timing.replica_in = app.timing.replica_out = {rtc::PJD::from_ms(30, 5, 30),
                                                    rtc::PJD::from_ms(30, 30, 30)};
  app.timing.consumer = rtc::PJD::from_ms(30, 2, 30);

  app.make_input = [content_seed](std::uint64_t index) -> Bytes {
    const Frame frame = generate_frame(kFrameWidth, kFrameHeight, index, content_seed);
    return encode_frame(frame, kQuality);
  };
  app.split = [](BytesView input) -> std::pair<Bytes, Bytes> {
    EncodedSlices slices = split_encoded(input);
    return {std::move(slices.top), std::move(slices.bottom)};
  };
  app.part_transform = [](BytesView slice) -> Bytes {
    const Frame half = decode_slice(slice);
    return half.pixels;
  };
  app.merge = [](BytesView top, BytesView bottom) -> Bytes {
    Bytes merged;
    merged.reserve(top.size() + bottom.size());
    merged.insert(merged.end(), top.begin(), top.end());
    merged.insert(merged.end(), bottom.begin(), bottom.end());
    return merged;
  };
  return app;
}

}  // namespace sccft::apps::mjpeg
