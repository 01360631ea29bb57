// Selective hardening: the use case that motivates per-instance Functional
// De-Rating (paper §I cites selective-TMR methodologies [3]-[5]).
//
// A designer can only afford to harden (e.g. triplicate) a fraction of the
// flip-flops. Hardening a flip-flop removes its contribution to the circuit
// failure rate, so the best picks are the highest-FDR instances. This
// example compares three selection policies under the ground-truth campaign:
//   - oracle   : rank by measured FDR (needs the full, expensive campaign)
//   - ml       : rank by FDR *predicted* by the estimation flow (cheap)
//   - activity : rank by raw signal activity (a common heuristic)
//
//   ./build/examples/selective_hardening

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "core/estimation_flow.hpp"
#include "fault/engine.hpp"
#include "features/feature_set.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace ffr;

// Residual circuit failure-rate proxy after hardening `chosen` flip-flops:
// the sum of true FDR over the unhardened instances (uniform raw fault rate
// per flip-flop assumed, as in the paper's failure-rate composition).
double residual_failure(const linalg::Vector& true_fdr,
                        std::vector<std::size_t> chosen) {
  std::vector<bool> hardened(true_fdr.size(), false);
  for (const std::size_t i : chosen) hardened[i] = true;
  double sum = 0.0;
  for (std::size_t i = 0; i < true_fdr.size(); ++i) {
    if (!hardened[i]) sum += true_fdr[i];
  }
  return sum;
}

std::vector<std::size_t> top_k(const linalg::Vector& score, std::size_t k) {
  std::vector<std::size_t> order(score.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return score[a] > score[b]; });
  order.resize(std::min(k, order.size()));
  return order;
}

}  // namespace

int main() {
  circuits::MacConfig circuit_config;
  circuit_config.tx_depth_log2 = 4;
  circuit_config.rx_depth_log2 = 4;
  const circuits::MacCore mac = circuits::build_mac_core(circuit_config);
  const circuits::MacTestbench bench = circuits::build_mac_testbench(mac, {});
  std::printf("circuit: %s\n\n", mac.netlist.summary().c_str());

  // Ground truth (the expensive full campaign — what the oracle sees). One
  // engine serves it and the estimation flow below: it runs the golden
  // simulation once and sweeps the hold links on its first campaign.
  const fault::CampaignEngine engine(mac.netlist, bench.tb);
  fault::CampaignConfig campaign_config;
  campaign_config.injections_per_ff = 64;
  const fault::CampaignResult campaign = engine.run(campaign_config);
  const linalg::Vector true_fdr = campaign.fdr_vector();

  // ML policy: estimation flow with a 25% training budget.
  core::FlowConfig flow_config;
  flow_config.training_size = 0.25;
  flow_config.injections_per_ff = 64;
  flow_config.model = "knn_paper";
  const core::FlowResult flow = core::run_estimation_flow(engine, flow_config);
  for (const std::string& warning : flow.warnings) {
    std::printf("warning: %s\n", warning.c_str());
  }

  // Activity heuristic: state changes from the golden trace.
  const core::FlowResult& features_source = flow;
  const linalg::Vector activity =
      features_source.features.column(features::Feature::kStateChanges);

  const double baseline = residual_failure(true_fdr, {});
  util::TablePrinter table({"hardened FFs", "oracle", "ml (25% budget)",
                            "activity heuristic"});
  for (const double fraction : {0.05, 0.10, 0.20, 0.30}) {
    const auto k = static_cast<std::size_t>(fraction *
                                            static_cast<double>(true_fdr.size()));
    const double oracle = residual_failure(true_fdr, top_k(true_fdr, k));
    const double ml = residual_failure(true_fdr, top_k(flow.fdr, k));
    const double heuristic = residual_failure(true_fdr, top_k(activity, k));
    auto pct = [&](double v) {
      return util::TablePrinter::format(100.0 * (baseline - v) / baseline, 1) +
             "% reduction";
    };
    table.add_row({util::TablePrinter::format(fraction * 100, 0) + "%",
                   pct(oracle), pct(ml), pct(heuristic)});
  }
  std::printf("circuit failure-rate reduction achieved by hardening the\n"
              "top-k flip-flops chosen by each policy (higher is better):\n\n");
  table.print();
  std::printf(
      "\nThe ML policy needs %llu injections; the oracle needs %llu.\n",
      static_cast<unsigned long long>(flow.injections_spent),
      static_cast<unsigned long long>(campaign.total_injections));
  return 0;
}
