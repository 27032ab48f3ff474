// Pinned simulated-statistics digests (workloads.hpp: Digest) at the default
// seed 1, for the full and the --quick operation lists. A change that alters
// any modelled output of a workload changes its digest and fails every one
// of its operations; re-pin only for an intended change of the model, with
// the new value printed by `sccft_bench --workload NAME --seed 1 [--quick]`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace sccft::perf {

struct PinnedDigest {
  const char* workload;
  bool quick;
  std::uint64_t digest;
};

inline constexpr PinnedDigest kPinnedDigests[] = {
    {"paper_tables", false, 0xed1d3e344daa0946ULL},
    {"paper_tables", true, 0x3f3ff9cedf89e08eULL},
    {"chaos_soak", false, 0x6a3fac4fa20a1702ULL},
    {"chaos_soak", true, 0xa79312c33d02aa23ULL},
    {"fleet_sweep", false, 0x47c440c94a28d139ULL},
    {"fleet_sweep", true, 0x470215c8836bf312ULL},
    {"vuln_profile", false, 0x9288f336b753c1d2ULL},
    {"vuln_profile", true, 0xe3f022624933ac22ULL},
};

[[nodiscard]] inline std::optional<std::uint64_t> pinned_digest(const std::string& workload,
                                                                bool quick) {
  for (const PinnedDigest& pin : kPinnedDigests) {
    if (workload == pin.workload && quick == pin.quick) return pin.digest;
  }
  return std::nullopt;
}

}  // namespace sccft::perf
