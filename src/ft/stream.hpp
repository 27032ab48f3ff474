// The synthetic token stream every fault rig drives through a
// FaultTolerantHarness: the paper's Fig. 1 network with trivial
// applications, producer -> replicator -> N replicas -> selector -> consumer.
//
// Token k carries `token_bytes` copies of (uint8)k. Only 256 such payloads
// exist per token size, so each size's are built and CRC-stamped once into a
// shared, immutable table (synthetic_payloads) and every token shares its
// entry: an emission costs one refcount increment, with no allocation and no
// CRC. Consumers and oracles compare checksum()s, never buffer identity, and
// the fault helpers copy the bytes before flipping a bit, so sharing is
// invisible to every output.
//
// Every process paces itself with a kpn::TimingShaper on its interface
// model, and all process RNG seeds derive from one stream seed (producer
// seed*10+1, replica r seed*10+2+r, consumer seed*10+2+N). Rigs differ only
// in what the consumer does with each token, so two rigs with the same seed
// and timing run the same schedule.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ft/framework.hpp"
#include "kpn/network.hpp"
#include "rtc/pjd.hpp"
#include "trace/bus.hpp"

namespace sccft::ft {

/// What a consumer does with each token it reads, at the time it read it.
using TokenAction = std::function<void(const kpn::Token&, rtc::TimeNs)>;

/// The payloads of one token size: entry v holds `token_bytes` copies of
/// (uint8)v, so token k's payload (and its CRC) is entry k & 0xff.
using SyntheticPayloads = std::array<kpn::PayloadRef, 256>;

/// The shared table for `token_bytes`, built on first use and kept for the
/// rest of the process; thread-safe.
const SyntheticPayloads& synthetic_payloads(std::size_t token_bytes);

/// Shaped producer: writes token k into `sink` at the `model` envelope. With
/// a bus, the shaper reports its emissions under `subject` (the feed of the
/// online conformance monitors).
sim::Task synthetic_producer(kpn::ProcessContext& ctx, rtc::PJD model,
                             std::size_t token_bytes, kpn::TokenSink& sink,
                             trace::TraceBus* bus = nullptr,
                             trace::SubjectId subject = 0);

/// Shaped consumer: reads `source` at the `model` envelope and hands every
/// token to `on_token`.
sim::Task synthetic_consumer(kpn::ProcessContext& ctx, rtc::PJD model,
                             kpn::TokenSource& source, TokenAction on_token);

/// One stream's names, seed, cores and per-rig hooks.
struct SyntheticStream {
  /// Prepended to the process names "producer", "r1".."rN" and "consumer".
  std::string prefix{};
  std::uint64_t seed = 0;
  std::size_t token_bytes = 4;
  /// Producer, replicas 1..N, consumer, in that order. Empty = one process
  /// per tile: producer on core 0, replica k (1-based) on core 2k, consumer
  /// on core 2(N+1).
  std::vector<scc::CoreId> cores{};
  /// Subject the producer's shaper reports emissions under; none = unbound.
  std::optional<trace::SubjectId> producer_subject{};
  TokenAction on_token{};
  /// Called by a replica after each completed iteration (e.g. the
  /// control-plane watchdog heartbeat); empty = no kick.
  std::function<void(ReplicaIndex)> kick{};
};

/// Adds the producer, the N replicas and the consumer (N = the harness's
/// width) in that order, each paced on its `timing` model. Replica i reads
/// I_i and writes O_i behind three fault gates (SCCFT_FAULT_GATE) and, while
/// rate-degraded, emits at least rate_factor x its period apart. Returns the
/// replica processes, one group per replica, in FaultCampaign::Wiring layout.
std::vector<std::vector<kpn::Process*>> add_synthetic_stream(
    kpn::Network& net, FaultTolerantHarness& harness, const AppTimingSpec& timing,
    SyntheticStream stream);

}  // namespace sccft::ft
