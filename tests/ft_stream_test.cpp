// The synthetic producer's shared payload tables (ft/stream.hpp): token k of
// every producer is entry k & 0xff of its size's table, the table is built
// once per size, and fault helpers never write through to it.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "ft/stream.hpp"
#include "kpn/network.hpp"
#include "kpn/payload.hpp"
#include "sim/simulator.hpp"
#include "util/crc32.hpp"

namespace sccft::ft {
namespace {

/// Producer -> FIFO -> consumer at a 1 ms period for 600 ms: seqs 0..511 and
/// beyond. Returns the consumed tokens by seq.
std::map<std::uint64_t, kpn::Token> run_plain_stream(std::size_t token_bytes,
                                                      std::uint64_t seed = 1) {
  sim::Simulator simulator;
  kpn::Network net(simulator);
  const rtc::PJD model = rtc::PJD::from_ms(1, 0, 1);
  auto& fifo = net.add_fifo("fifo", 4);
  std::map<std::uint64_t, kpn::Token> consumed;
  net.add_process("producer", scc::CoreId{0}, seed * 10 + 1,
                  [&](kpn::ProcessContext& ctx) {
                    return synthetic_producer(ctx, model, token_bytes, fifo);
                  });
  net.add_process("consumer", scc::CoreId{2}, seed * 10 + 2,
                  [&](kpn::ProcessContext& ctx) {
                    return synthetic_consumer(
                        ctx, model, fifo,
                        [&](const kpn::Token& token, rtc::TimeNs) {
                          consumed.emplace(token.seq(), token);
                        });
                  });
  net.run_until(rtc::from_ms(600.0));
  net.rethrow_failures();
  return consumed;
}

TEST(SyntheticPayloads, TokenKCarriesKAndItsCrc) {
  for (const std::size_t token_bytes : {1u, 4u, 1024u}) {
    const auto consumed = run_plain_stream(token_bytes);
    for (const std::uint64_t k : {0u, 255u, 256u, 511u}) {
      ASSERT_TRUE(consumed.contains(k)) << "bytes " << token_bytes << " seq " << k;
      const kpn::Token& token = consumed.at(k);
      const std::vector<std::uint8_t> expected(token_bytes,
                                               static_cast<std::uint8_t>(k));
      EXPECT_EQ(std::vector<std::uint8_t>(token.payload().begin(),
                                          token.payload().end()),
                expected)
          << "bytes " << token_bytes << " seq " << k;
      EXPECT_EQ(token.checksum(), util::crc32(expected))
          << "bytes " << token_bytes << " seq " << k;
      EXPECT_TRUE(token.verify_checksum());
      EXPECT_EQ(token.payload_ref().data(),
                synthetic_payloads(token_bytes)[k & 0xff].data());
    }
    // Seqs 256 apart share one entry.
    EXPECT_EQ(consumed.at(0).payload_ref().data(),
              consumed.at(256).payload_ref().data());
  }
}

TEST(SyntheticPayloads, ProducersOfOneSizeShareBuffers) {
  const auto a = run_plain_stream(64, 1);
  const auto b = run_plain_stream(64, 2);
  for (const std::uint64_t k : {0u, 7u, 255u, 300u}) {
    ASSERT_TRUE(a.contains(k) && b.contains(k)) << "seq " << k;
    EXPECT_EQ(a.at(k).payload_ref().data(), b.at(k).payload_ref().data())
        << "seq " << k;
  }
  // Another size has its own table.
  EXPECT_NE(synthetic_payloads(64)[0].data(), synthetic_payloads(65)[0].data());
}

TEST(SyntheticPayloads, SecondRunAdmitsNoPayload) {
  (void)run_plain_stream(128);
  const kpn::PayloadPool& pool = kpn::PayloadPool::instance();
  const std::uint64_t created = pool.buffers_created();
  const std::uint64_t recycled = pool.buffers_recycled();
  (void)run_plain_stream(128);
  EXPECT_EQ(pool.buffers_created(), created);
  EXPECT_EQ(pool.buffers_recycled(), recycled);
}

TEST(SyntheticPayloads, FaultHelpersLeaveTheTableUntouched) {
  const std::size_t token_bytes = 16;
  const SyntheticPayloads& table = synthetic_payloads(token_bytes);
  for (const std::uint64_t k : {0u, 1u, 200u, 255u}) {
    const kpn::PayloadRef& entry = table[k];
    const std::vector<std::uint8_t> expected(token_bytes, static_cast<std::uint8_t>(k));
    const std::uint32_t crc = util::crc32(expected);
    const kpn::Token token(entry, k, 0);
    for (const std::size_t bit : {0u, 13u, 127u, 1000u}) {
      const kpn::Token loud = token.corrupted(bit);
      const kpn::Token silent = token.silently_corrupted(bit);
      EXPECT_FALSE(loud.verify_checksum());
      EXPECT_TRUE(silent.verify_checksum());
      EXPECT_NE(silent.checksum(), crc);
      EXPECT_NE(loud.payload_ref().data(), entry.data());
      EXPECT_NE(silent.payload_ref().data(), entry.data());
    }
    EXPECT_EQ(std::vector<std::uint8_t>(entry.view().begin(), entry.view().end()),
              expected)
        << "entry " << k;
    EXPECT_EQ(entry.crc(), crc) << "entry " << k;
    EXPECT_TRUE(token.verify_checksum());
  }
}

}  // namespace
}  // namespace sccft::ft
