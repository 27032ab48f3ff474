// Design-time sizing and platform cost of N-replica protection.
//
// The paper (Section 1): "Without loss of generality, we focus on tolerating
// at most one permanent timing fault, using two replicas ... a more general
// setup for tolerating up to n timing faults can be easily constructed using
// the principles outlined in this paper." The channels themselves take N as
// a parameter (ft/replicator.hpp, ft/selector.hpp); this module dimensions
// them for N replicas and prices the result.
//
// Sizing is the per-replica application of Eq. (3)-(5):
//   |R_i| = sup(alpha_P^u - alpha_{i,in}^l),
//   |S_i|_0 = sup(alpha_C^u - alpha_{i,out}^l),
//   |S_i| = |S_i|_0 + sup(alpha_{i,out}^u - alpha_C^l),
//   D = 1 + max over ordered pairs (i, j) of sup(alpha_i^u - alpha_j^l).
#pragma once

#include <cstddef>
#include <vector>

#include "rtc/sizing.hpp"

namespace sccft::ft {

/// Per-replica timing models for the N-replica sizing analysis.
struct NReplicaTimingModel {
  rtc::CurveRef producer_upper, producer_lower;
  rtc::CurveRef consumer_upper, consumer_lower;
  std::vector<rtc::CurveRef> in_upper, in_lower;    // one per replica
  std::vector<rtc::CurveRef> out_upper, out_lower;  // one per replica
};

struct NSizingReport {
  std::vector<rtc::Tokens> replicator_capacity;  // |R_i|
  std::vector<rtc::Tokens> selector_capacity;    // |S_i|
  std::vector<rtc::Tokens> selector_initial;     // |S_i|_0
  rtc::Tokens divergence_threshold = 0;          // D
  rtc::TimeNs replicator_overflow_bound = 0;     // max_i (Eq. 3 fill time)
  rtc::TimeNs selector_latency_bound = 0;        // Eq. (7)/(8) over all pairs
};

/// Runs the Section 3.4 analysis for N replicas. Throws on infeasible bounds.
[[nodiscard]] NSizingReport analyze_n_replica_network(const NReplicaTimingModel& model,
                                                      rtc::TimeNs horizon);

/// Platform cost of one protection level, in the three resources the SCC
/// budget is spent in: replica cores, MPB bytes for the channel queues, and
/// mesh links for the duplicated producer->replica->consumer hops. One shared
/// definition so the replica-count ablation, the vulnerability-guided
/// planner, and the fleet placement accounting can never drift apart.
struct ReplicationCost {
  int cores = 0;             ///< replica processes (producer/consumer excluded)
  std::size_t mpb_bytes = 0; ///< all queue slots (Eq. (3) + Eq. (4)) x token size
  int noc_links = 0;         ///< producer->R_i plus R_i->consumer hops

  [[nodiscard]] bool operator==(const ReplicationCost&) const = default;
};

/// Cost of an N-replicated stream under `sizing` (N = the report's width).
[[nodiscard]] ReplicationCost replication_cost(const NSizingReport& sizing,
                                               std::size_t token_bytes);

/// Cost of an unprotected (N = 1) stream: one core, one plain FIFO, two hops.
[[nodiscard]] ReplicationCost unreplicated_cost(rtc::Tokens fifo_capacity,
                                                std::size_t token_bytes);

}  // namespace sccft::ft
