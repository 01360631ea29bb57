// Cross-circuit transfer: DomainScaler normalization properties, the
// train-once/predict-many flow end-to-end on real circuits (persist, reload,
// bit-identical serving, byte-identical re-save, positioned load errors),
// and the shape-validation contract of fit/predict.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "core/transfer_flow.hpp"
#include "features/domain_scaler.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/svr.hpp"
#include "ml/tree.hpp"
#include "positioned_error.hpp"
#include "util/rng.hpp"

namespace ffr {
namespace {

using features::ColumnNorm;
using features::DomainScaler;
using features::DomainScalerConfig;
using testing_support::expect_positioned_error;

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed, double scale = 1.0) {
  util::Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = scale * rng.uniform(-5, 5);
    }
  }
  return m;
}

DomainScalerConfig uniform_norms(std::size_t cols, ColumnNorm norm) {
  DomainScalerConfig config;
  config.norms.assign(cols, norm);
  return config;
}

// ---- DomainScaler ----------------------------------------------------------

TEST(DomainScaler, ZScoreColumnsHaveZeroMeanUnitVariance) {
  const linalg::Matrix x = random_matrix(200, 4, 0xAB, 37.0);
  const DomainScaler scaler(uniform_norms(4, ColumnNorm::kZScore));
  const linalg::Matrix z = scaler.standardize(x);
  for (std::size_t c = 0; c < z.cols(); ++c) {
    const linalg::Vector col = z.col_copy(c);
    EXPECT_NEAR(linalg::mean(col), 0.0, 1e-9);
    EXPECT_NEAR(linalg::stddev(col), 1.0, 1e-9);
  }
}

TEST(DomainScaler, ZScoreIsInvariantToPerCircuitAffineRescaling) {
  // The whole point: two circuits whose features differ by scale/offset
  // produce identical standardized matrices.
  const linalg::Matrix x = random_matrix(64, 3, 0xCD);
  linalg::Matrix rescaled = x;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      rescaled(r, c) = 250.0 * x(r, c) + 17.0;
    }
  }
  const DomainScaler scaler(uniform_norms(3, ColumnNorm::kZScore));
  const linalg::Matrix a = scaler.standardize(x);
  const linalg::Matrix b = scaler.standardize(rescaled);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a(r, c), b(r, c), 1e-9);
    }
  }
}

TEST(DomainScaler, ZScoreExcludesSentinelsFromStatistics) {
  // Column: many -1 sentinels plus a few real values. The real values must
  // standardize against their own mean/std, not the sentinel-dragged one.
  linalg::Matrix x(6, 1);
  x(0, 0) = features::kNoValue;
  x(1, 0) = features::kNoValue;
  x(2, 0) = features::kNoValue;
  x(3, 0) = 10.0;
  x(4, 0) = 20.0;
  x(5, 0) = 30.0;
  const DomainScaler scaler(uniform_norms(1, ColumnNorm::kZScore));
  const linalg::Matrix z = scaler.standardize(x);
  // Real values: mean 20, population std sqrt(200/3).
  const double std = std::sqrt(200.0 / 3.0);
  EXPECT_NEAR(z(3, 0), -10.0 / std, 1e-12);
  EXPECT_NEAR(z(4, 0), 0.0, 1e-12);
  EXPECT_NEAR(z(5, 0), 10.0 / std, 1e-12);
  // Sentinels map through the same affine map: lower than every real value.
  EXPECT_LT(z(0, 0), z(3, 0));
  EXPECT_EQ(z(0, 0), z(1, 0));
}

TEST(DomainScaler, RankColumnsAreUniformInOpenUnitInterval) {
  const linalg::Matrix x = random_matrix(100, 2, 0xEF, 1e4);
  const DomainScaler scaler(uniform_norms(2, ColumnNorm::kRank));
  const linalg::Matrix ranks = scaler.standardize(x);
  for (std::size_t c = 0; c < 2; ++c) {
    const linalg::Vector col = ranks.col_copy(c);
    EXPECT_GT(linalg::min_value(col), 0.0);
    EXPECT_LT(linalg::max_value(col), 1.0);
    // Distinct values, so ranks are the exact lattice (i + 0.5) / n.
    linalg::Vector sorted = col;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_NEAR(sorted[i],
                  (static_cast<double>(i) + 0.5) / static_cast<double>(sorted.size()),
                  1e-12);
    }
  }
}

TEST(DomainScaler, RankIsInvariantToMonotoneRescalingAndDuplication) {
  const linalg::Matrix x = random_matrix(40, 1, 0x11);
  const DomainScaler scaler(uniform_norms(1, ColumnNorm::kRank));
  const linalg::Matrix base = scaler.standardize(x);

  // Any monotone map (here exp) leaves ranks untouched.
  linalg::Matrix warped = x;
  for (std::size_t r = 0; r < x.rows(); ++r) warped(r, 0) = std::exp(x(r, 0));
  const linalg::Matrix warped_ranks = scaler.standardize(warped);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(base(r, 0), warped_ranks(r, 0));
  }

  // Duplicating every row (a "circuit" twice the size) keeps fractions.
  linalg::Matrix doubled(2 * x.rows(), 1);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    doubled(r, 0) = x(r, 0);
    doubled(x.rows() + r, 0) = x(r, 0);
  }
  const linalg::Matrix doubled_ranks = scaler.standardize(doubled);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(doubled_ranks(r, 0), base(r, 0), 1e-12);
  }
}

TEST(DomainScaler, IdentityColumnsPassThrough) {
  const linalg::Matrix x = random_matrix(20, 2, 0x22);
  const DomainScaler scaler(uniform_norms(2, ColumnNorm::kIdentity));
  const linalg::Matrix out = scaler.standardize(x);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(out(r, 0), x(r, 0));
    EXPECT_EQ(out(r, 1), x(r, 1));
  }
}

TEST(DomainScaler, DefaultNormsCoverEveryFeatureColumn) {
  const auto norms = features::default_transfer_norms();
  EXPECT_EQ(norms.size(), features::kNumFeatures);
  // Flags/ratios stay identity; the state-change count is rank-normalized.
  EXPECT_EQ(norms[features::index_of(features::Feature::kAt0Ratio)],
            ColumnNorm::kIdentity);
  EXPECT_EQ(norms[features::index_of(features::Feature::kStateChanges)],
            ColumnNorm::kRank);
  EXPECT_EQ(norms[features::index_of(features::Feature::kFfFanIn)],
            ColumnNorm::kZScore);
}

TEST(DomainScaler, RejectsShapeMismatchAndBadConfig) {
  const DomainScaler scaler(uniform_norms(3, ColumnNorm::kZScore));
  EXPECT_THROW((void)scaler.standardize(random_matrix(5, 4, 1)),
               std::invalid_argument);
  EXPECT_THROW((void)scaler.standardize(linalg::Matrix{}),
               std::invalid_argument);
  DomainScalerConfig bad;
  bad.norms.assign(2, static_cast<ColumnNorm>(9));
  EXPECT_THROW(DomainScaler{bad}, std::invalid_argument);
}

// ---- fit/predict shape validation ------------------------------------------

TEST(ShapeValidation, FitRejectsRowLabelMismatchNamingShapes) {
  const linalg::Matrix x = random_matrix(10, 3, 0x33);
  const linalg::Vector y(7, 0.5);
  ml::LinearLeastSquares model;
  try {
    model.fit(x, y);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("10"), std::string::npos) << what;
    EXPECT_NE(what.find("7"), std::string::npos) << what;
  }
}

TEST(ShapeValidation, PredictRejectsFeatureCountDriftNamingShapes) {
  const linalg::Matrix x = random_matrix(30, 4, 0x44);
  linalg::Vector y(30);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = x(i, 0) + x(i, 2);
  const linalg::Matrix drifted = random_matrix(5, 3, 0x55);

  ml::LinearLeastSquares linear;
  linear.fit(x, y);
  ml::KnnRegressor knn;
  knn.fit(x, y);
  ml::SvrRegressor svr;
  svr.fit(x, y);
  ml::DecisionTreeRegressor tree;
  tree.fit(x, y);
  ml::RandomForestRegressor forest(ml::ForestConfig{.n_estimators = 3});
  forest.fit(x, y);
  ml::GradientBoostingRegressor gbr(ml::BoostingConfig{.n_estimators = 3});
  gbr.fit(x, y);

  const ml::Regressor* models[] = {&linear, &knn, &svr, &tree, &forest, &gbr};
  for (const ml::Regressor* model : models) {
    try {
      (void)model->predict(drifted);
      FAIL() << model->name() << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("fitted on 4"), std::string::npos)
          << model->name() << ": " << what;
      EXPECT_NE(what.find("5x3"), std::string::npos)
          << model->name() << ": " << what;
    }
  }
}

// ---- transfer flow end-to-end ----------------------------------------------

core::TransferSample gather(const netlist::Netlist& nl, const sim::Testbench& tb,
                            std::size_t injections) {
  core::TransferConfig config;
  config.injections_per_ff = injections;
  return core::gather_transfer_sample(nl, tb, config);
}

class TransferFlowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    circuits::MacConfig mac_config;
    mac_config.tx_depth_log2 = 3;
    mac_config.rx_depth_log2 = 3;
    mac_ = new circuits::MacCore(circuits::build_mac_core(mac_config));
    mac_bench_ =
        new circuits::MacTestbench(circuits::build_mac_testbench(*mac_, {}));
    pipe_ = new circuits::PipelineCore(circuits::build_pipeline_core());
    pipe_bench_ = new circuits::PipelineTestbench(
        circuits::build_pipeline_testbench(*pipe_, 64, 0.7, 0x51));
    mac_sample_ = new core::TransferSample(gather(mac_->netlist, mac_bench_->tb, 8));
  }
  static void TearDownTestSuite() {
    delete mac_sample_;
    delete pipe_bench_;
    delete pipe_;
    delete mac_bench_;
    delete mac_;
  }

  static circuits::MacCore* mac_;
  static circuits::MacTestbench* mac_bench_;
  static circuits::PipelineCore* pipe_;
  static circuits::PipelineTestbench* pipe_bench_;
  static core::TransferSample* mac_sample_;
};

circuits::MacCore* TransferFlowTest::mac_ = nullptr;
circuits::MacTestbench* TransferFlowTest::mac_bench_ = nullptr;
circuits::PipelineCore* TransferFlowTest::pipe_ = nullptr;
circuits::PipelineTestbench* TransferFlowTest::pipe_bench_ = nullptr;
core::TransferSample* TransferFlowTest::mac_sample_ = nullptr;

TEST_F(TransferFlowTest, TrainPersistReloadServesBitIdentically) {
  core::TransferConfig config;
  config.model = "knn_paper";
  const std::vector<core::TransferSample> train = {*mac_sample_};
  const core::TransferModel trained = core::train_transfer_model(train, config);
  EXPECT_EQ(trained.model_name(), "knn_paper");
  EXPECT_EQ(trained.train_circuits(),
            std::vector<std::string>{std::string("mac_core")});
  EXPECT_EQ(trained.train_rows(), mac_sample_->fdr.size());

  std::ostringstream os;
  trained.save(os);
  std::istringstream is(os.str());
  const core::TransferModel served = core::TransferModel::load(is);
  EXPECT_EQ(served.model_name(), trained.model_name());
  EXPECT_EQ(served.train_circuits(), trained.train_circuits());

  // Predict an unseen circuit (golden run only, no injection) from both the
  // in-memory and the reloaded model: bit-identical.
  const linalg::Vector in_memory = trained.predict(pipe_->netlist, pipe_bench_->tb);
  const linalg::Vector reloaded = served.predict(pipe_->netlist, pipe_bench_->tb);
  ASSERT_EQ(in_memory.size(), pipe_->netlist.flip_flops().size());
  ASSERT_EQ(reloaded.size(), in_memory.size());
  for (std::size_t i = 0; i < in_memory.size(); ++i) {
    EXPECT_EQ(reloaded[i], in_memory[i]) << "row " << i;
  }
}

TEST_F(TransferFlowTest, FileRoundTripMatchesStreamRoundTrip) {
  core::TransferConfig config;
  config.model = "linear";
  const std::vector<core::TransferSample> train = {*mac_sample_};
  const core::TransferModel trained = core::train_transfer_model(train, config);
  const auto path =
      std::filesystem::temp_directory_path() / "ffr_test_transfer_model.txt";
  trained.save(path);
  const core::TransferModel loaded = core::TransferModel::load(path);
  std::filesystem::remove(path);
  const linalg::Vector a = trained.predict(mac_sample_->features);
  const linalg::Vector b = loaded.predict(mac_sample_->features);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST_F(TransferFlowTest, EndToEndCircuitOverloadMatchesSampleOverload) {
  // The (netlist, testbench) overload must produce the same model as
  // gathering the sample manually with the same knobs.
  core::TransferConfig config;
  config.model = "linear";
  config.injections_per_ff = 8;
  const std::vector<core::TransferCircuit> circuits = {
      {&mac_->netlist, &mac_bench_->tb}};
  std::vector<core::TransferTrainStats> stats;
  const core::TransferModel from_circuits =
      core::train_transfer_model(circuits, config, &stats);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].circuit, "mac_core");
  EXPECT_EQ(stats[0].rows, mac_sample_->fdr.size());
  EXPECT_EQ(stats[0].injections, 8u * mac_sample_->fdr.size());

  const std::vector<core::TransferSample> train = {*mac_sample_};
  const core::TransferModel from_samples =
      core::train_transfer_model(train, config);
  const linalg::Vector a = from_circuits.predict(mac_sample_->features);
  const linalg::Vector b = from_samples.predict(mac_sample_->features);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST_F(TransferFlowTest, InDomainPredictionIsAccurate) {
  // Sanity: standardized training does not break in-domain quality.
  core::TransferConfig config;
  config.model = "knn_paper";
  const std::vector<core::TransferSample> train = {*mac_sample_};
  const core::TransferModel trained = core::train_transfer_model(train, config);
  const linalg::Vector pred = trained.predict(mac_sample_->features);
  EXPECT_GT(ml::r2_score(mac_sample_->fdr, pred), 0.9);
}

TEST(TransferFlow, TrainRejectsBadInput) {
  EXPECT_THROW((void)core::train_transfer_model(
                   std::span<const core::TransferSample>{}),
               std::invalid_argument);

  core::TransferSample sample;
  sample.name = "bad";
  sample.features.values = linalg::Matrix(4, 3);
  sample.fdr.assign(5, 0.0);  // row/label mismatch
  std::vector<core::TransferSample> samples = {sample};
  core::TransferConfig config;
  config.norms.norms.assign(3, ColumnNorm::kZScore);
  EXPECT_THROW((void)core::train_transfer_model(samples, config),
               std::invalid_argument);

  const std::vector<core::TransferCircuit> null_circuit = {{nullptr, nullptr}};
  EXPECT_THROW((void)core::train_transfer_model(null_circuit),
               std::invalid_argument);
}

TEST(TransferFlow, LoadRejectsCorruptTransferFiles) {
  {
    std::istringstream is("not-a-transfer 1");
    EXPECT_THROW((void)core::TransferModel::load(is), std::runtime_error);
  }
  {
    std::istringstream is("ffr-transfer 9 model_name knn");
    EXPECT_THROW((void)core::TransferModel::load(is), std::runtime_error);
  }
  {
    // Truncated: header only.
    std::istringstream is("ffr-transfer 1\nmodel_name knn_paper\n");
    EXPECT_THROW((void)core::TransferModel::load(is), std::runtime_error);
  }
  // Counts far beyond what the stream holds end at the stream's end; the
  // loader never sizes an allocation from them.
  for (const char* text :
       {"ffr-transfer 1\nmodel_name knn_paper\ncircuits 4294967296 mac_core\n",
        "ffr-transfer 1\nmodel_name knn_paper\ncircuits 0\nrows 5\n"
        "norms 4294967296 0 1\n"}) {
    std::istringstream is(text);
    EXPECT_THROW((void)core::TransferModel::load(is), std::runtime_error)
        << text;
  }
}

TEST(Metrics, SpearmanMatchesHandComputedValues) {
  const linalg::Vector a = {1.0, 2.0, 3.0, 4.0, 5.0};
  const linalg::Vector monotone = {10.0, 20.0, 30.0, 40.0, 50.0};
  const linalg::Vector reversed = {5.0, 4.0, 3.0, 2.0, 1.0};
  EXPECT_NEAR(ml::spearman_rho(a, monotone), 1.0, 1e-12);
  EXPECT_NEAR(ml::spearman_rho(a, reversed), -1.0, 1e-12);
  const linalg::Vector constant = {2.0, 2.0, 2.0, 2.0, 2.0};
  EXPECT_EQ(ml::spearman_rho(a, constant), 0.0);
  // Nonlinear but monotone: still exactly 1 (the point of rank correlation).
  const linalg::Vector warped = {std::exp(1.0), std::exp(2.0), std::exp(3.0),
                                 std::exp(4.0), std::exp(5.0)};
  EXPECT_NEAR(ml::spearman_rho(a, warped), 1.0, 1e-12);
}

/// A transfer model fitted on a small synthetic circuit, so the saved file
/// stays a few kilobytes.
core::TransferModel small_transfer_model() {
  core::TransferSample sample;
  sample.name = "synthetic";
  sample.features.values = random_matrix(12, 3, 0x7A);
  for (std::size_t r = 0; r < 12; ++r) {
    sample.fdr.push_back(0.5 + 0.05 * sample.features.values(r, 0));
  }
  core::TransferConfig config;
  config.norms = uniform_norms(3, ColumnNorm::kZScore);
  const std::vector<core::TransferSample> samples = {sample};
  return core::train_transfer_model(samples, config);
}

std::string save_to_string(const core::TransferModel& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

TEST(TransferFlow, SaveLoadSaveIsByteIdentical) {
  const std::string saved = save_to_string(small_transfer_model());
  std::istringstream is(saved);
  EXPECT_EQ(save_to_string(core::TransferModel::load(is)), saved);
}

TEST(TransferFlow, EveryPrefixCutIsAPositionedError) {
  const std::string full = save_to_string(small_transfer_model());
  // Every prefix that drops at least one character of a token; only the
  // trailing newline may go.
  const std::size_t last = full.find_last_not_of(" \n");
  for (std::size_t cut = 0; cut <= last; ++cut) {
    std::istringstream is(full.substr(0, cut));
    expect_positioned_error([&] { (void)core::TransferModel::load(is); },
                            "TransferModel::load");
    if (::testing::Test::HasFailure()) {
      FAIL() << "cut at " << cut << " of:\n" << full.substr(0, 200);
    }
  }

  // Through a file, the error names the path.
  const auto path =
      std::filesystem::temp_directory_path() / "ffr_test_transfer_cut.txt";
  std::ofstream(path) << full.substr(0, last);
  expect_positioned_error([&] { (void)core::TransferModel::load(path); },
                          path.string(), "expected 'end'");
  std::filesystem::remove(path);
}

TEST(TransferFlow, RejectsDeeplyNestedPipelinesWithoutExhaustingTheStack) {
  // A crafted model block of 30,000 nested scaled_pipeline headers (1.65 MB)
  // inside an otherwise valid transfer file.
  std::string text =
      "ffr-transfer 1 model_name knn_paper circuits 0 rows 0 norms 0 ";
  for (int i = 0; i < 30000; ++i) {
    text += "ffr-model 1 scaled_pipeline scaler_mean 0 scaler_std 0 ";
  }
  std::istringstream is(text);
  expect_positioned_error([&] { (void)core::TransferModel::load(is); },
                          "TransferModel::load", "nested deeper");
}

}  // namespace
}  // namespace ffr
