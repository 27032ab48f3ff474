// Host-speed reference, for timing on a shared machine.
//
// On a shared VM the same binary's throughput drifts with the neighbours'
// load: a few percent over a quiet minute, 20% and more over a busy one.
// The guest's thread CPU time drifts with it, because the slowdown happens
// outside the guest. A fixed computation timed right after the measured work
// slows down by nearly the same factor, so dividing each short slice of work
// by that factor removes most of the drift (RepResult in workloads.hpp does
// this every 0.1 s). On a 4-vCPU Xeon VM it cut the quartile spread of
// fleet_sweep throughput over ten runs from 0.086 to 0.010.
#pragma once

#include <cstdint>

namespace sccft::perf {

/// The fixed computation: ordered-map inserts and lookups, a sort and a hash
/// over a xorshift stream. It resembles the framework's allocation- and
/// branch-heavy code but shares none of it, so no framework change can make
/// it faster or slower. Returns a value derived from all of its work.
std::uint64_t reference_work();

/// Seconds reference_work() takes on a quiet 4-vCPU Xeon VM: the scale of
/// every normalized time. Comparisons between commits do not depend on it.
inline constexpr double kReferenceWorkS = 0.0036;

/// Runs reference_work() once and returns how much slower than
/// kReferenceWorkS it ran (1.0 = reference speed).
double host_slowness();

}  // namespace sccft::perf
