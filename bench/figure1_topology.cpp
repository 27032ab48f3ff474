// Regenerates the paper's Figure 1: the reference process network and its
// duplicated counterpart (replicator + two replicas + selector), rendered as
// ASCII topology, plus a structural validation that the duplication preserves
// the reference shape.
#include <iostream>

#include "apps/mjpeg/app.hpp"
#include "apps/common/experiment.hpp"
#include "rtc/sizing.hpp"

int main() {
  using namespace sccft;
  apps::ExperimentRunner runner(apps::mjpeg::make_application());

  std::cout << "Figure 1 (top): reference process network\n";
  std::cout << runner.render_topology(false) << "\n";
  std::cout << "Figure 1 (bottom): duplicated process network\n";
  std::cout << runner.render_topology(true) << "\n";

  const auto& app = runner.app();
  const auto sizing = rtc::analyze_duplicated_network(app.timing.to_model(),
                                                      app.timing.default_horizon());
  std::cout << "Channel dimensioning (Section 3.4):\n"
            << "  replicator:  |R1| = " << sizing.replicator_capacity[0]
            << ", |R2| = " << sizing.replicator_capacity[1] << " tokens\n"
            << "  selector:    |S1| = " << sizing.selector_capacity[0]
            << ", |S2| = " << sizing.selector_capacity[1]
            << " tokens, initial |S1|_0 = " << sizing.selector_initial[0]
            << ", |S2|_0 = " << sizing.selector_initial[1] << "\n"
            << "  divergence threshold D = " << sizing.selector_threshold << "\n";

  // Structural check: the duplicated network contains two copies of every
  // reference stage plus exactly one replicator and one selector path.
  const std::string dup = runner.render_topology(true);
  const std::string ref = runner.render_topology(false);
  int ref_edges = 0, dup_edges = 0;
  for (char c : ref) ref_edges += (c == '\n');
  for (char c : dup) dup_edges += (c == '\n');
  std::cout << "\nStructure: reference has " << ref_edges << " edges; duplicated has "
            << dup_edges << " (= 2x" << ref_edges
            << ", replicator/selector fan the endpoints).\n";
  return dup_edges == 2 * ref_edges ? 0 : 1;
}
