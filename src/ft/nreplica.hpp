// Platform cost of N-replica protection.
//
// The paper (Section 1): "Without loss of generality, we focus on tolerating
// at most one permanent timing fault, using two replicas ... a more general
// setup for tolerating up to n timing faults can be easily constructed using
// the principles outlined in this paper." The channels take N as a parameter
// (ft/replicator.hpp, ft/selector.hpp) and rtc::analyze_duplicated_network
// dimensions them for any N; this module prices the result.
#pragma once

#include <cstddef>

#include "rtc/sizing.hpp"

namespace sccft::ft {

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

/// Cost of an N-replicated stream under `sizing` (N = the report's width),
/// with the selector sides a harness builds in `payload_vote` mode (see
/// ft::selector_capacities).
[[nodiscard]] ReplicationCost replication_cost(const rtc::SizingReport& sizing,
                                               bool payload_vote,
                                               std::size_t token_bytes);

/// Cost of an unprotected (N = 1) stream: one core, one plain FIFO, two hops.
[[nodiscard]] ReplicationCost unreplicated_cost(rtc::Tokens fifo_capacity,
                                                std::size_t token_bytes);

}  // namespace sccft::ft
