#include "vuln/planner.hpp"

#include <algorithm>
#include <string>

#include "ft/fleet.hpp"
#include "ft/framework.hpp"
#include "rtc/sizing.hpp"
#include "util/assert.hpp"

namespace sccft::vuln {
namespace {

/// Timing of `spec` with `replicas` copies of its stage.
ft::AppTimingSpec timing_of(const ProcessSpec& spec, int replicas) {
  const auto n = static_cast<std::size_t>(replicas);
  return ft::AppTimingSpec{.producer = spec.producer,
                           .consumer = spec.consumer,
                           .replica_in = std::vector<rtc::PJD>(n, spec.stage),
                           .replica_out = std::vector<rtc::PJD>(n, spec.stage)};
}

rtc::SizingReport size_replicated(const ProcessSpec& spec, int protection) {
  const ft::AppTimingSpec timing = timing_of(spec, protection);
  return rtc::analyze_duplicated_network(timing.to_model(), timing.default_horizon());
}

/// Eq. (3) capacity of the unprotected pipeline's FIFOs, over the horizon
/// the replicated forms are sized with.
rtc::Tokens pipeline_capacity(const ProcessSpec& spec) {
  const rtc::PJDUpperCurve producer_upper(spec.producer);
  const rtc::PJDLowerCurve stage_lower(spec.stage);
  const auto capacity = rtc::min_fifo_capacity(producer_upper, stage_lower,
                                               timing_of(spec, 1).default_horizon());
  return std::max<rtc::Tokens>(capacity.value_or(1), 1);
}

void check_protection(const ProcessSpec& spec, int protection) {
  if (protection < 1 || protection > 4) {
    util::contract_failure_msg("precondition",
                               "protection of stream '" + spec.name +
                                   "' must be in 1..4, got " + std::to_string(protection),
                               __FILE__, __LINE__);
  }
}

std::uint64_t bytes_per_second(const ProcessSpec& spec) {
  return static_cast<std::uint64_t>(spec.token_bytes) *
         static_cast<std::uint64_t>(
             1'000'000'000 / std::max<rtc::TimeNs>(spec.producer.period, 1));
}

/// v(index, protection) from the profile; nullopt when that level was never
/// measured for the process (the planner then refuses to upgrade into it).
std::optional<double> vulnerability_at(const VulnerabilityProfile& profile,
                                       std::size_t process, int protection) {
  const ProcessProfile& p = profile.processes[process];
  const bool measured =
      std::any_of(p.cells.begin(), p.cells.end(), [&](const CampaignCell& c) {
        return c.protection == protection && c.trials > 0;
      });
  if (!measured) return std::nullopt;
  return p.vulnerability(protection);
}

bool placement_fits(const Application& app, const std::vector<int>& protection,
                    int max_processes_per_core) {
  try {
    (void)scc::place_fleet(
        build_placement_request(app, protection, max_processes_per_core));
    return true;
  } catch (const scc::PlacementError&) {
    return false;
  }
}

}  // namespace

ft::ReplicationCost process_cost(const ProcessSpec& spec, int protection) {
  check_protection(spec, protection);
  if (protection == 1) {
    return ft::unreplicated_cost(pipeline_capacity(spec), spec.token_bytes);
  }
  return ft::replication_cost(size_replicated(spec, protection), protection >= 3,
                              spec.token_bytes);
}

scc::PlacementRequest build_placement_request(const Application& app,
                                              const std::vector<int>& protection,
                                              int max_processes_per_core) {
  SCCFT_EXPECTS(protection.size() == app.processes.size());
  scc::PlacementRequest request;
  request.max_processes_per_core = max_processes_per_core;
  for (std::size_t i = 0; i < app.processes.size(); ++i) {
    const ProcessSpec& spec = app.processes[i];
    const int n = protection[i];
    check_protection(spec, n);
    const std::uint64_t weight = bytes_per_second(spec);
    if (n >= 2) {
      ft::add_replicated_stream(request, spec.name, spec.index, size_replicated(spec, n),
                                n >= 3, spec.token_bytes, weight);
      continue;
    }
    const int base = static_cast<int>(request.processes.size());
    const std::size_t fifo_bytes =
        static_cast<std::size_t>(pipeline_capacity(spec)) * spec.token_bytes;
    request.processes.push_back({spec.name + ".producer", spec.index, -1, 0});
    request.processes.push_back({spec.name + ".stage", spec.index, -1, fifo_bytes});
    request.processes.push_back({spec.name + ".consumer", spec.index, -1, fifo_bytes});
    request.edges.push_back({base, base + 1, weight});
    request.edges.push_back({base + 1, base + 2, weight});
  }
  return request;
}

ProtectionPlan plan_protection(const Application& app,
                               const VulnerabilityProfile& profile,
                               const PlannerOptions& options) {
  SCCFT_EXPECTS(!app.processes.empty());
  SCCFT_EXPECTS(options.budget_extra_cores >= 0);
  SCCFT_EXPECTS(options.max_protection >= 1 && options.max_protection <= 4);
  if (profile.processes.size() != app.processes.size()) {
    throw util::ContractViolation(
        "vulnerability profile covers " +
        std::to_string(profile.processes.size()) + " processes, application has " +
        std::to_string(app.processes.size()));
  }

  ProtectionPlan plan;
  plan.budget_extra_cores = options.budget_extra_cores;
  plan.protection.assign(app.processes.size(), 1);

  int spent = 0;
  while (spent < options.budget_extra_cores) {
    // Candidate upgrades, best first: marginal escapes-per-trial removed by
    // one more replica. Strictly-greater ordering with index tiebreak keeps
    // the plan independent of evaluation order.
    struct Candidate {
      std::size_t process;
      double gain;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < app.processes.size(); ++i) {
      const int current = plan.protection[i];
      if (current >= options.max_protection) continue;
      const auto now = vulnerability_at(profile, i, current);
      const auto next = vulnerability_at(profile, i, current + 1);
      if (!now || !next) continue;
      const double gain = *now - *next;
      if (gain > 0.0) candidates.push_back({i, gain});
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.gain > b.gain;
                     });
    bool upgraded = false;
    for (const Candidate& candidate : candidates) {
      std::vector<int> tentative = plan.protection;
      ++tentative[candidate.process];
      if (options.check_placement &&
          !placement_fits(app, tentative, options.max_processes_per_core)) {
        continue;
      }
      plan.protection = std::move(tentative);
      ++spent;
      upgraded = true;
      break;
    }
    if (!upgraded) break;
  }

  for (std::size_t i = 0; i < app.processes.size(); ++i) {
    const ft::ReplicationCost cost =
        process_cost(app.processes[i], plan.protection[i]);
    plan.total_cost.cores += cost.cores;
    plan.total_cost.mpb_bytes += cost.mpb_bytes;
    plan.total_cost.noc_links += cost.noc_links;
    plan.residual_vulnerability +=
        vulnerability_at(profile, i, plan.protection[i]).value_or(0.0);
  }
  return plan;
}

}  // namespace sccft::vuln
