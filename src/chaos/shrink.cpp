#include "chaos/shrink.hpp"

#include <algorithm>
#include <set>

#include "util/assert.hpp"

namespace sccft::chaos {
namespace {

/// Splits `faults` into `n` contiguous chunks of near-equal size.
std::vector<std::vector<ft::FaultSpec>> chunked(
    const std::vector<ft::FaultSpec>& faults, int n) {
  std::vector<std::vector<ft::FaultSpec>> chunks;
  const std::size_t size = faults.size();
  std::size_t start = 0;
  for (int c = 0; c < n; ++c) {
    const std::size_t end = size * static_cast<std::size_t>(c + 1) /
                            static_cast<std::size_t>(n);
    chunks.emplace_back(faults.begin() + static_cast<std::ptrdiff_t>(start),
                        faults.begin() + static_cast<std::ptrdiff_t>(end));
    start = end;
  }
  return chunks;
}

std::vector<ft::FaultSpec> complement_of(
    const std::vector<std::vector<ft::FaultSpec>>& chunks, std::size_t skip) {
  std::vector<ft::FaultSpec> rest;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (c == skip) continue;
    rest.insert(rest.end(), chunks[c].begin(), chunks[c].end());
  }
  return rest;
}

}  // namespace

ShrinkResult shrink_plan(const StormPlan& plan, const RunOptions& options,
                         const std::vector<Violation>& original,
                         const RunObservation& golden) {
  SCCFT_EXPECTS(!original.empty());

  std::set<ViolationCode> wanted;
  for (const Violation& violation : original) wanted.insert(violation.code);

  ShrinkResult result;
  // Probes a candidate fault list; on reproduction returns true and leaves
  // the reproduced violations in `last_violations`.
  std::vector<Violation> last_violations;
  auto reproduces = [&](const std::vector<ft::FaultSpec>& faults) {
    StormPlan candidate = plan;
    candidate.faults = faults;
    ++result.probes;
    const RunObservation obs = run_storm(candidate, options);
    std::vector<Violation> found = check_invariants(candidate, obs, golden);
    const bool hit = std::any_of(found.begin(), found.end(), [&](const Violation& v) {
      return wanted.count(v.code) > 0;
    });
    if (hit) last_violations = std::move(found);
    return hit;
  };

  // A fault-independent failure shrinks all the way to the empty plan.
  if (reproduces({})) {
    result.violations = std::move(last_violations);
    return result;
  }

  std::vector<ft::FaultSpec> current = plan.faults;
  int n = 2;
  while (static_cast<int>(current.size()) >= 2) {
    const auto chunks = chunked(current, std::min<int>(n, static_cast<int>(current.size())));
    bool reduced = false;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      if (reproduces(chunks[c])) {  // reduce to subset
        current = chunks[c];
        n = 2;
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      for (std::size_t c = 0; c < chunks.size() && chunks.size() > 2; ++c) {
        if (reproduces(complement_of(chunks, c))) {  // reduce to complement
          current = complement_of(chunks, c);
          n = std::max(n - 1, 2);
          reduced = true;
          break;
        }
      }
    }
    if (!reduced) {
      if (n >= static_cast<int>(current.size())) break;  // 1-minimal
      n = std::min(2 * n, static_cast<int>(current.size()));
    }
  }

  result.faults = std::move(current);
  // Re-derive the minimal plan's verdicts (the last probe may have been a
  // failed complement, so last_violations can be stale).
  if (!reproduces(result.faults)) {
    // The full plan itself is the only reproducer at this granularity; the
    // probe above re-ran it, so reproduction is guaranteed by determinism.
    util::contract_failure("assertion", "minimal plan must still reproduce",
                           __FILE__, __LINE__);
  }
  result.violations = std::move(last_violations);
  return result;
}

}  // namespace sccft::chaos
