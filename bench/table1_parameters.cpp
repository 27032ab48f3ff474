// Regenerates the paper's Table 1: "Parameters for Fault Tolerance
// Experiments" — the <period, jitter, delay> tuples of every interface of
// every application, plus derived bandwidths.
#include <iostream>

#include "apps/adpcm/app.hpp"
#include "apps/h264/app.hpp"
#include "apps/mjpeg/app.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace sccft;

std::string bandwidth(const apps::ApplicationSpec& app) {
  const double tokens_per_sec =
      1e9 / static_cast<double>(app.timing.producer.period);
  const double in_bw = tokens_per_sec * app.input_token_bytes;
  const double out_bw = tokens_per_sec * app.output_token_bytes;
  return util::format_si(in_bw, "B/s", 0) + " in / " +
         util::format_si(out_bw, "B/s", 0) + " out";
}

void add_app(util::Table& table, const apps::ApplicationSpec& app) {
  const auto& t = app.timing;
  table.add_row({app.name, "producer (input rate)", t.producer.to_string(),
                 bandwidth(app)});
  table.add_row({"", "replica 1 consumption", t.replica_in[0].to_string(), ""});
  table.add_row({"", "replica 1 production", t.replica_out[0].to_string(), ""});
  table.add_row({"", "replica 2 consumption", t.replica_in[1].to_string(), ""});
  table.add_row({"", "replica 2 production", t.replica_out[1].to_string(), ""});
  table.add_row({"", "consumer consumption", t.consumer.to_string(), ""});
  table.add_separator();
}

}  // namespace

int main() {
  util::Table table(
      "Table 1: Parameters for Fault Tolerance Experiments "
      "(<period, jitter, delay> per interface)");
  table.set_header({"Application", "Interface", "<P, J, d>", "Nominal bandwidth"});
  table.set_alignment({util::Align::kLeft, util::Align::kLeft, util::Align::kLeft,
                       util::Align::kLeft});
  add_app(table, apps::mjpeg::make_application());
  add_app(table, apps::adpcm::make_application());
  add_app(table, apps::h264::make_application());
  std::cout << table << "\n";
  std::cout << "Token sizes: MJPEG ~10 KB encoded in / 76.8 KB decoded out;\n"
               "             ADPCM 3 KB in / 3 KB out (4:1 inside the replica);\n"
               "             H.264 25.3 KB raw in / ~8 KB encoded out.\n";
  return 0;
}
