#include "core/transfer_flow.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "fault/engine.hpp"
#include "ml/model_zoo.hpp"
#include "ml/serialize.hpp"
#include "sim/runner.hpp"

namespace ffr::core {

linalg::Vector TransferModel::predict(const netlist::Netlist& nl,
                                      const sim::Testbench& tb) const {
  const sim::GoldenResult golden = sim::run_golden(nl, tb);
  return predict(features::extract_features(nl, golden.activity));
}

linalg::Vector TransferModel::predict(
    const features::FeatureMatrix& features) const {
  const features::DomainScaler scaler(norms_);
  return model_->predict(scaler.standardize(features.values));
}

namespace {

// The format is whitespace-tokenized, so names must be single tokens.
void check_token_name(const std::string& name, const char* field) {
  if (name.empty() || name.find_first_of(" \t\n\r") != std::string::npos) {
    throw std::invalid_argument("TransferModel::save: " + std::string(field) +
                                " '" + name +
                                "' must be non-empty and whitespace-free");
  }
}

}  // namespace

void TransferModel::save(std::ostream& os) const {
  check_token_name(model_name_, "model name");
  for (const std::string& name : train_circuits_) {
    check_token_name(name, "circuit name");
  }
  os << "ffr-transfer 1\nmodel_name " << model_name_ << "\ncircuits "
     << train_circuits_.size();
  for (const std::string& name : train_circuits_) os << ' ' << name;
  os << "\nrows " << train_rows_ << '\n';
  const features::DomainScaler scaler(norms_);
  os << "norms " << scaler.norms().size();
  for (const features::ColumnNorm norm : scaler.norms()) {
    os << ' ' << static_cast<int>(norm);
  }
  os << '\n';
  model_->save(os);
  os << "end\n";
}

void TransferModel::save(const std::filesystem::path& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("TransferModel::save: cannot open " +
                             path.string());
  }
  save(os);
  if (!os.flush()) {
    throw std::runtime_error("TransferModel::save: write failed for " +
                             path.string());
  }
}

TransferModel TransferModel::read(const util::TokenReader& r) {
  r.expect_header("ffr-transfer", 1);
  TransferModel model;
  r.expect("model_name");
  model.model_name_ = r.token();
  r.expect("circuits");
  const std::uint64_t num_circuits = r.u64(ml::io::kMaxCount);
  for (std::uint64_t i = 0; i < num_circuits; ++i) {
    model.train_circuits_.push_back(r.token());
  }
  r.expect("rows");
  model.train_rows_ = static_cast<std::size_t>(r.u64(ml::io::kMaxCount));
  r.expect("norms");
  const std::uint64_t num_norms = r.u64(ml::io::kMaxCount);
  for (std::uint64_t i = 0; i < num_norms; ++i) {
    const std::uint64_t value = r.u64(ml::io::kMaxCount);
    if (value > 2) r.fail("invalid ColumnNorm " + std::to_string(value));
    model.norms_.norms.push_back(
        static_cast<features::ColumnNorm>(static_cast<int>(value)));
  }
  model.model_ = ml::load_model(r);
  r.expect("end");
  return model;
}

TransferModel TransferModel::load(std::istream& is) {
  return read(util::TokenReader(is, "TransferModel::load"));
}

TransferModel TransferModel::load(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("TransferModel::load: cannot open " +
                             path.string());
  }
  return read(util::TokenReader(is, path.string()));
}

TransferModel train_transfer_model(std::span<const TransferSample> samples,
                                   const TransferConfig& config) {
  if (samples.empty()) {
    throw std::invalid_argument("train_transfer_model: no training circuits");
  }
  const features::DomainScaler scaler(config.norms);
  std::size_t total_rows = 0;
  const std::size_t cols = samples.front().features.values.cols();
  for (const TransferSample& sample : samples) {
    if (sample.features.values.rows() != sample.fdr.size()) {
      throw std::invalid_argument(
          "train_transfer_model: circuit '" + sample.name + "' has " +
          std::to_string(sample.features.values.rows()) +
          " feature rows but " + std::to_string(sample.fdr.size()) +
          " FDR labels");
    }
    if (sample.features.values.cols() != cols) {
      throw std::invalid_argument(
          "train_transfer_model: circuit '" + sample.name + "' has " +
          std::to_string(sample.features.values.cols()) +
          " feature columns, expected " + std::to_string(cols));
    }
    total_rows += sample.features.values.rows();
  }

  // Normalize each circuit against itself, then stack.
  linalg::Matrix x(total_rows, cols);
  linalg::Vector y;
  y.reserve(total_rows);
  std::size_t row = 0;
  for (const TransferSample& sample : samples) {
    const linalg::Matrix standardized = scaler.standardize(sample.features.values);
    for (std::size_t r = 0; r < standardized.rows(); ++r) {
      x.set_row(row++, standardized.row(r));
    }
    y.insert(y.end(), sample.fdr.begin(), sample.fdr.end());
  }

  TransferModel model;
  model.model_ = ml::make_model(config.model);
  model.model_->fit(x, y);
  model.model_name_ = config.model;
  model.norms_.norms = scaler.norms();
  model.train_rows_ = total_rows;
  for (const TransferSample& sample : samples) {
    model.train_circuits_.push_back(sample.name);
  }
  return model;
}

TransferSample gather_transfer_sample(const netlist::Netlist& nl,
                                      const sim::Testbench& tb,
                                      const TransferConfig& config,
                                      TransferTrainStats* stats) {
  if (config.injections_per_ff == 0) {
    throw std::invalid_argument(
        "gather_transfer_sample: injections_per_ff must be >= 1");
  }
  const fault::CampaignEngine engine(nl, tb);
  fault::CampaignConfig campaign_config;
  campaign_config.injections_per_ff = config.injections_per_ff;
  campaign_config.seed = config.seed;
  campaign_config.num_threads = config.num_threads;
  const fault::CampaignResult campaign = engine.run(campaign_config);

  TransferSample sample;
  sample.name = nl.name();
  sample.features = features::extract_features(nl, engine.golden().activity);
  sample.fdr = campaign.fdr_vector();
  if (stats != nullptr) {
    *stats = {sample.name, sample.fdr.size(), campaign.total_injections,
              campaign.wall_seconds};
  }
  return sample;
}

TransferModel train_transfer_model(std::span<const TransferCircuit> circuits,
                                   const TransferConfig& config,
                                   std::vector<TransferTrainStats>* stats) {
  if (circuits.empty()) {
    throw std::invalid_argument("train_transfer_model: no training circuits");
  }
  std::vector<TransferSample> samples;
  samples.reserve(circuits.size());
  for (const TransferCircuit& circuit : circuits) {
    if (circuit.netlist == nullptr || circuit.testbench == nullptr) {
      throw std::invalid_argument(
          "train_transfer_model: null netlist or testbench");
    }
    TransferTrainStats circuit_stats;
    samples.push_back(gather_transfer_sample(*circuit.netlist,
                                             *circuit.testbench, config,
                                             &circuit_stats));
    if (stats != nullptr) stats->push_back(circuit_stats);
  }
  return train_transfer_model(samples, config);
}

}  // namespace ffr::core
