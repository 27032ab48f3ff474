#include "ft/nreplica.hpp"

#include "ft/framework.hpp"
#include "util/assert.hpp"

namespace sccft::ft {

ReplicationCost replication_cost(const rtc::SizingReport& sizing, bool payload_vote,
                                 std::size_t token_bytes) {
  SCCFT_EXPECTS(!sizing.replicator_capacity.empty());
  SCCFT_EXPECTS(sizing.selector_capacity.size() == sizing.replicator_capacity.size());
  SCCFT_EXPECTS(token_bytes > 0);
  ReplicationCost cost;
  cost.cores = static_cast<int>(sizing.replicator_capacity.size());
  rtc::Tokens slots = 0;
  for (rtc::Tokens c : sizing.replicator_capacity) slots += c;
  for (rtc::Tokens c : selector_capacities(sizing, sizing.selector_threshold, payload_vote)) {
    slots += c;
  }
  cost.mpb_bytes = static_cast<std::size_t>(slots) * token_bytes;
  cost.noc_links = 2 * cost.cores;
  return cost;
}

ReplicationCost unreplicated_cost(rtc::Tokens fifo_capacity,
                                  std::size_t token_bytes) {
  SCCFT_EXPECTS(fifo_capacity > 0);
  SCCFT_EXPECTS(token_bytes > 0);
  ReplicationCost cost;
  cost.cores = 1;
  cost.mpb_bytes = static_cast<std::size_t>(fifo_capacity) * token_bytes;
  cost.noc_links = 2;
  return cost;
}

}  // namespace sccft::ft
