#include "vuln/profile.hpp"

#include <algorithm>
#include <string_view>

#include "util/assert.hpp"
#include "util/record.hpp"

namespace sccft::vuln {
namespace {

/// Reads the `header` line, then hands each record up to the `end` line to
/// `read`, which fails on a tag it does not know.
template <class Read>
void read_records(util::RecordReader& in, std::string_view header, Read read) {
  in.header(header);
  while (in.next()) {
    if (in.tag().empty()) in.fail("empty line");
    if (in.tag() == "end") return in.end();
    read(in.tag());
    in.end();
  }
  in.fail("no end line");
}

}  // namespace

const std::vector<ft::FaultKind>& profiled_kinds() {
  static const std::vector<ft::FaultKind> kinds{
      ft::FaultKind::kTransientSilence, ft::FaultKind::kRateDegradation,
      ft::FaultKind::kPayloadCorruption, ft::FaultKind::kSilentCorruption};
  return kinds;
}

double ProcessProfile::vulnerability(int protection) const {
  double total = 0.0;
  for (const CampaignCell& c : cells) {
    if (c.protection != protection || c.trials == 0) continue;
    total += static_cast<double>(c.escapes()) / static_cast<double>(c.trials);
  }
  return total;
}

const CampaignCell* ProcessProfile::cell(ft::FaultKind kind,
                                         int protection) const {
  for (const CampaignCell& c : cells) {
    if (c.kind == kind && c.protection == protection) return &c;
  }
  return nullptr;
}

std::vector<int> VulnerabilityProfile::ranking() const {
  std::vector<int> order(processes.size());
  for (std::size_t i = 0; i < processes.size(); ++i) {
    order[i] = processes[i].index;
  }
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    double va = 0.0, vb = 0.0;
    for (const ProcessProfile& p : processes) {
      if (p.index == a) va = p.vulnerability(1);
      if (p.index == b) vb = p.vulnerability(1);
    }
    return va > vb;  // stable: equal scores keep index order
  });
  return order;
}

std::string to_text(const VulnerabilityProfile& profile) {
  util::RecordWriter out;
  out.line("vuln-profile v1")
      .line("seed", profile.seed)
      .line("run-length", profile.run_length)
      .line("trials", profile.trials_per_cell);
  for (const ProcessProfile& process : profile.processes) {
    if (process.name.empty() ||
        process.name.find_first_of(" \t\n") != std::string::npos) {
      throw util::ContractViolation(
          "vuln profile process name must be one non-empty token: '" +
          process.name + "'");
    }
    out.line("process", process.index, process.name);
    for (const CampaignCell& cell : process.cells) {
      out.line("cell", ft::to_string(cell.kind), cell.protection, cell.trials,
               cell.injections, cell.tokens_delivered, cell.corruption_escapes,
               cell.sequence_divergences, cell.deadline_misses, cell.detections,
               cell.detection_latency_sum, cell.detection_latency_count);
    }
  }
  out.line("end");
  return std::move(out).str();
}

VulnerabilityProfile profile_from_text(const std::string& text) {
  util::RecordReader in(text, "vuln profile");
  VulnerabilityProfile profile;
  read_records(in, "vuln-profile v1", [&](std::string_view tag) {
    if (tag == "seed") {
      profile.seed = in.u64("seed");
    } else if (tag == "run-length") {
      profile.run_length = in.i64("run_length", 1);
    } else if (tag == "trials") {
      profile.trials_per_cell = in.i32("trials", 1);
    } else if (tag == "process") {
      const int index = in.i32("index", 0);
      profile.processes.push_back({in.word("name"), index, {}});
    } else if (tag == "cell") {
      if (profile.processes.empty()) in.fail("cell before any process line");
      CampaignCell cell;
      cell.kind = in.enumeration("kind", ft::fault_kind_from_text);
      cell.protection = in.i32("protection", 1);
      cell.trials = in.i32("trials", 0);
      cell.injections = in.i32("injections", 0);
      cell.tokens_delivered = in.u64("delivered");
      cell.corruption_escapes = in.u64("corruptions");
      cell.sequence_divergences = in.u64("divergences");
      cell.deadline_misses = in.u64("deadline_misses");
      cell.detections = in.u64("detections");
      cell.detection_latency_sum = in.i64("latency_sum_ns", 0);
      cell.detection_latency_count = in.i32("latency_count", 0);
      profile.processes.back().cells.push_back(cell);
    } else {
      in.fail("unknown key '" + std::string(tag) + "'");
    }
  });
  return profile;
}

std::string to_text(const ProtectionPlan& plan) {
  util::RecordWriter out;
  out.line("vuln-plan v1")
      .line("budget", plan.budget_extra_cores)
      .line("cost", plan.total_cost.cores, plan.total_cost.mpb_bytes,
            plan.total_cost.noc_links)
      .line("residual", plan.residual_vulnerability)
      .raw("protection");
  for (const int n : plan.protection) out.fields(n);
  out.line("").line("end");
  return std::move(out).str();
}

ProtectionPlan plan_from_text(const std::string& text) {
  util::RecordReader in(text, "vuln plan");
  ProtectionPlan plan;
  read_records(in, "vuln-plan v1", [&](std::string_view tag) {
    if (tag == "budget") {
      plan.budget_extra_cores = in.i32("budget", 0);
    } else if (tag == "cost") {
      plan.total_cost.cores = in.i32("cores", 0);
      plan.total_cost.mpb_bytes = in.u64("mpb_bytes");
      plan.total_cost.noc_links = in.i32("noc_links", 0);
    } else if (tag == "residual") {
      plan.residual_vulnerability = in.f64("residual");
      in.check(plan.residual_vulnerability >= 0.0, "is negative");
    } else if (tag == "protection") {
      while (in.more()) plan.protection.push_back(in.i32("protection", 1));
      if (plan.protection.empty()) in.fail("the protection list is empty");
    } else {
      in.fail("unknown key '" + std::string(tag) + "'");
    }
  });
  return plan;
}

}  // namespace sccft::vuln
