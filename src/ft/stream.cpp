#include "ft/stream.hpp"

#include <algorithm>
#include <utility>

#include "kpn/timing.hpp"
#include "util/assert.hpp"

namespace sccft::ft {
namespace {

sim::Task synthetic_replica(kpn::ProcessContext& ctx, rtc::PJD model,
                            kpn::TokenSource& in, kpn::TokenSink& out,
                            ReplicaIndex which,
                            std::function<void(ReplicaIndex)> kick) {
  kpn::TimingShaper emit(model, ctx.now(), ctx.rng());
  rtc::TimeNs last_emit = -1;
  while (true) {
    SCCFT_FAULT_GATE(ctx);
    kpn::Token token = co_await kpn::read(in);
    SCCFT_FAULT_GATE(ctx);
    rtc::TimeNs target = emit.next_emission(ctx.now());
    // A rate-degraded replica emits at least factor * period apart (the
    // paper's "does so at a rate lower than expected").
    if (ctx.fault().rate_factor > 1.0 && last_emit >= 0) {
      target = std::max(target, last_emit + static_cast<rtc::TimeNs>(
                                                ctx.fault().rate_factor *
                                                static_cast<double>(model.period)));
    }
    if (target > ctx.now()) co_await ctx.compute(target - ctx.now());
    SCCFT_FAULT_GATE(ctx);
    co_await kpn::write(out, token);
    emit.commit(ctx.now());
    last_emit = ctx.now();
    if (kick) kick(which);
  }
}

}  // namespace

sim::Task synthetic_producer(kpn::ProcessContext& ctx, rtc::PJD model,
                             std::size_t token_bytes, kpn::TokenSink& sink,
                             trace::TraceBus* bus, trace::SubjectId subject) {
  kpn::TimingShaper shaper(model, 0, ctx.rng());
  if (bus != nullptr) shaper.bind_trace(bus, subject);
  for (std::uint64_t k = 0;; ++k) {
    const rtc::TimeNs t = shaper.next_emission(ctx.now());
    if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
    std::vector<std::uint8_t> payload(token_bytes, static_cast<std::uint8_t>(k));
    co_await kpn::write(sink, kpn::Token(std::move(payload), k, ctx.now()));
    shaper.commit(ctx.now());
  }
}

sim::Task synthetic_consumer(kpn::ProcessContext& ctx, rtc::PJD model,
                             kpn::TokenSource& source, TokenAction on_token) {
  kpn::TimingShaper shaper(model, 0, ctx.rng());
  while (true) {
    const rtc::TimeNs t = shaper.next_emission(ctx.now());
    if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
    kpn::Token token = co_await kpn::read(source);
    shaper.commit(ctx.now());
    on_token(token, ctx.now());
  }
}

std::vector<std::vector<kpn::Process*>> add_synthetic_stream(
    kpn::Network& net, FaultTolerantHarness& harness, const AppTimingSpec& timing,
    SyntheticStream stream) {
  const int n = harness.selector().replica_count();
  SCCFT_EXPECTS(timing.replica_out.size() == static_cast<std::size_t>(n));
  SCCFT_EXPECTS(stream.on_token != nullptr);
  std::vector<scc::CoreId> cores = std::move(stream.cores);
  if (cores.empty()) {
    for (int i = 0; i <= n + 1; ++i) cores.push_back(scc::CoreId{2 * i});
  }
  if (cores.size() != static_cast<std::size_t>(n) + 2) {
    util::contract_failure_msg("precondition",
                               "stream '" + stream.prefix + "' needs " +
                                   std::to_string(n + 2) + " cores for " +
                                   std::to_string(n) + " replicas, got " +
                                   std::to_string(cores.size()),
                               __FILE__, __LINE__);
  }

  trace::TraceBus* bus =
      stream.producer_subject ? &net.simulator().trace() : nullptr;
  net.add_process(stream.prefix + "producer", cores.front(), stream.seed * 10 + 1,
                  [model = timing.producer, bytes = stream.token_bytes,
                   sink = &harness.replicator(), bus,
                   subject = stream.producer_subject.value_or(0)](
                      kpn::ProcessContext& ctx) {
                    return synthetic_producer(ctx, model, bytes, *sink, bus, subject);
                  });

  std::vector<std::vector<kpn::Process*>> replicas;
  for (int r = 0; r < n; ++r) {
    const auto which = static_cast<ReplicaIndex>(r);
    replicas.push_back({&net.add_process(
        stream.prefix + "r" + std::to_string(r + 1),
        cores[static_cast<std::size_t>(r) + 1],
        stream.seed * 10 + 2 + static_cast<std::uint64_t>(r),
        [model = timing.replica_out[static_cast<std::size_t>(r)],
         in = &harness.replicator().read_interface(which),
         out = &harness.selector().write_interface(which), which,
         kick = stream.kick](kpn::ProcessContext& ctx) {
          return synthetic_replica(ctx, model, *in, *out, which, kick);
        })});
  }

  net.add_process(stream.prefix + "consumer", cores.back(),
                  stream.seed * 10 + 2 + static_cast<std::uint64_t>(n),
                  [model = timing.consumer, source = &harness.selector(),
                   on_token = std::move(stream.on_token)](kpn::ProcessContext& ctx) {
                    return synthetic_consumer(ctx, model, *source, on_token);
                  });
  return replicas;
}

}  // namespace sccft::ft
