// Model persistence: save -> load -> predict bit-identity and save -> load
// -> save byte-identity across every zoo model on random feature matrices,
// plus strict, positioned rejection of corrupt, truncated, wrong-version,
// out-of-range and over-nested model files.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/model_zoo.hpp"
#include "ml/pipeline.hpp"
#include "ml/serialize.hpp"
#include "ml/svr.hpp"
#include "ml/tree.hpp"
#include "positioned_error.hpp"
#include "util/rng.hpp"

namespace ffr::ml {
namespace {

using testing_support::expect_positioned_error;

struct Problem {
  Matrix x;
  Vector y;
};

// Random features on wildly different scales (like the real feature set)
// and targets in [0, 1] (like FDR values).
Problem make_problem(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Problem p;
  p.x = Matrix(rows, cols);
  p.y.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double scale = c % 3 == 0 ? 1000.0 : (c % 3 == 1 ? 1.0 : 0.01);
      p.x(r, c) = scale * rng.uniform(-2, 2);
    }
    p.y[r] = 0.5 + 0.5 * std::sin(p.x(r, 0) * 0.001 + p.x(r, cols - 1));
  }
  return p;
}

std::string save_to_string(const Regressor& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

/// `text` with the `index`-th token after the first "key " replaced by
/// `value`.
std::string replace_token_after(std::string text, const std::string& key,
                                std::size_t index, const std::string& value) {
  std::size_t pos = text.find(key + ' ');
  EXPECT_NE(pos, std::string::npos) << key;
  pos += key.size() + 1;
  for (std::size_t i = 0; i < index; ++i) pos = text.find(' ', pos) + 1;
  const std::size_t end = text.find_first_of(" \n", pos);
  return text.replace(pos, end - pos, value);
}

std::unique_ptr<Regressor> round_trip(const Regressor& model) {
  std::istringstream is(save_to_string(model));
  return load_model(is);
}

TEST(Serialize, RoundTripIsBitIdenticalForEveryZooModel) {
  const Problem train = make_problem(48, 6, 0xA1);
  const Problem query = make_problem(17, 6, 0xB2);
  for (const std::string_view name : model_zoo_names()) {
    auto model = make_model(name);
    model->fit(train.x, train.y);
    const auto reloaded = round_trip(*model);
    EXPECT_EQ(reloaded->name(), model->name()) << name;
    EXPECT_TRUE(reloaded->is_fitted()) << name;
    const Vector expected = model->predict(query.x);
    const Vector actual = reloaded->predict(query.x);
    ASSERT_EQ(actual.size(), expected.size()) << name;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      // Exact comparison on purpose: the format must round-trip binary64.
      EXPECT_EQ(actual[i], expected[i]) << name << " row " << i;
    }
  }
}

TEST(Serialize, SaveLoadSaveIsByteIdenticalForEveryZooModel) {
  const Problem train = make_problem(48, 6, 0xA1);
  for (const std::string_view name : model_zoo_names()) {
    auto model = make_model(name);
    model->fit(train.x, train.y);
    const std::string saved = save_to_string(*model);
    EXPECT_EQ(save_to_string(*round_trip(*model)), saved) << name;
  }
}

TEST(Serialize, RoundTripPreservesHyperparameters) {
  const Problem train = make_problem(30, 4, 0xC3);
  auto model = make_model("knn_paper");
  model->fit(train.x, train.y);
  const auto reloaded = round_trip(*model);
  EXPECT_EQ(reloaded->get_params(), model->get_params());
}

TEST(Serialize, FileRoundTripMatchesStreamRoundTrip) {
  const Problem train = make_problem(30, 5, 0xD4);
  const Problem query = make_problem(9, 5, 0xE5);
  auto model = make_model("random_forest");
  model->fit(train.x, train.y);
  const auto path =
      std::filesystem::temp_directory_path() / "ffr_test_model_roundtrip.txt";
  save_model_file(path, *model);
  const auto reloaded = load_model_file(path);
  std::filesystem::remove(path);
  const Vector expected = model->predict(query.x);
  const Vector actual = reloaded->predict(query.x);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]);
  }
}

TEST(Serialize, SavingAnUnfittedModelThrows) {
  for (const std::string_view name : model_zoo_names()) {
    const auto model = make_model(name);
    std::ostringstream os;
    EXPECT_THROW(model->save(os), std::logic_error) << name;
  }
}

TEST(Serialize, RejectsBadMagic) {
  std::istringstream is("not-a-model 1 knn");
  EXPECT_THROW(
      {
        try {
          (void)load_model(is);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(Serialize, RejectsWrongVersion) {
  std::istringstream is("ffr-model 999 knn");
  EXPECT_THROW(
      {
        try {
          (void)load_model(is);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("version 999"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(Serialize, RejectsUnknownTag) {
  std::istringstream is("ffr-model 1 neural_net");
  EXPECT_THROW(
      {
        try {
          (void)load_model(is);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("neural_net"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(Serialize, RejectsTruncatedFilesAtEveryPrefixLength) {
  const Problem train = make_problem(20, 3, 0xF6);
  for (const std::string_view name :
       {std::string_view("linear"), std::string_view("knn_paper"),
        std::string_view("decision_tree"), std::string_view("gradient_boosting")}) {
    auto model = make_model(name);
    model->fit(train.x, train.y);
    const std::string full = save_to_string(*model);
    // Cut at several points, including just before the final "end".
    for (const double fraction : {0.1, 0.5, 0.9}) {
      const auto cut = static_cast<std::size_t>(
          fraction * static_cast<double>(full.size()));
      std::istringstream is(full.substr(0, cut));
      EXPECT_THROW((void)load_model(is), std::runtime_error)
          << name << " cut at " << cut << "/" << full.size();
    }
    std::istringstream is(full.substr(0, full.size() - 4));
    EXPECT_THROW((void)load_model(is), std::runtime_error) << name;
  }
}

TEST(Serialize, EveryPrefixCutIsAPositionedError) {
  const Problem train = make_problem(12, 3, 0x5C);
  auto knn = make_model("knn_paper");
  knn->fit(train.x, train.y);
  // Three trees keep the quadratic sweep short; the fields and the nested
  // tree blocks are those of the zoo's gradient_boosting.
  GradientBoostingRegressor gbr(BoostingConfig{.n_estimators = 3});
  gbr.fit(train.x, train.y);
  for (const std::string& full : {save_to_string(*knn), save_to_string(gbr)}) {
    // Every prefix that drops at least one character of a token; only the
    // trailing newline may go.
    const std::size_t last = full.find_last_not_of(" \n");
    for (std::size_t cut = 0; cut <= last; ++cut) {
      std::istringstream is(full.substr(0, cut));
      expect_positioned_error([&] { (void)load_model(is); }, "load_model");
      if (::testing::Test::HasFailure()) {
        FAIL() << "cut at " << cut << " of:\n" << full.substr(0, 200);
      }
    }
  }
}

/// `levels` scaled_pipeline headers, each opening the next block.
std::string nested_pipeline_headers(std::size_t levels) {
  std::string text;
  for (std::size_t i = 0; i < levels; ++i) {
    text += "ffr-model 1 scaled_pipeline scaler_mean 0 scaler_std 0 ";
  }
  return text;
}

TEST(Serialize, RejectsPipelinesNestedBeyondTheLimit) {
  const Problem train = make_problem(12, 3, 0x6D);
  auto linear = make_model("linear");
  linear->fit(train.x, train.y);
  const auto wrapped = [&](std::size_t levels) {
    std::string text =
        nested_pipeline_headers(levels) + save_to_string(*linear);
    for (std::size_t i = 0; i < levels; ++i) text += "end\n";
    return text;
  };
  {
    std::istringstream is(wrapped(kMaxPipelineDepth));
    EXPECT_NO_THROW((void)load_model(is));
  }
  {
    std::istringstream is(wrapped(kMaxPipelineDepth + 1));
    expect_positioned_error([&] { (void)load_model(is); }, "load_model",
                            "nested deeper");
  }
}

TEST(Serialize, RejectsDeeplyNestedPipelinesWithoutExhaustingTheStack) {
  // 1.65 MB of nested headers: unbounded recursion overflows the stack.
  const std::string text = nested_pipeline_headers(30000);
  std::istringstream is(text);
  expect_positioned_error([&] { (void)load_model(is); }, "load_model",
                          "nested deeper");

  // Through a file, the error names the path.
  const auto path =
      std::filesystem::temp_directory_path() / "ffr_test_nested_model.txt";
  std::ofstream(path) << text;
  expect_positioned_error([&] { (void)load_model_file(path); }, path.string(),
                          "nested deeper");
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsOutOfRangeHyperparametersAsPositionedErrors) {
  // The model constructors reject these with std::invalid_argument; a
  // loader reports them like any other corrupt field.
  const std::pair<const char*, const char*> cases[] = {
      {"ffr-model 1 knn k 0 p 2 weights 0 train_x 0 0 train_y 0 end",
       "k must be >= 1"},
      {"ffr-model 1 knn k 3 p 0 weights 0 train_x 0 0 train_y 0 end",
       "p must be >= 1"},
      {"ffr-model 1 decision_tree tree_config 0 2 1 0 0 n_features 0 depth 0 "
       "nodes 0 end",
       "max_depth >= 1"},
  };
  for (const auto& [text, fragment] : cases) {
    std::istringstream is(text);
    expect_positioned_error([&] { (void)load_model(is); }, "load_model",
                            fragment);
  }
}

TEST(Serialize, RejectsCorruptNumbersAndCounts) {
  const Problem train = make_problem(20, 3, 0x17);
  auto model = make_model("linear");
  model->fit(train.x, train.y);
  std::string text = save_to_string(*model);

  // A non-numeric token where a double is expected.
  std::string corrupt = text;
  corrupt.replace(corrupt.find("intercept") + 10, 3, "abc");
  std::istringstream bad_number(corrupt);
  EXPECT_THROW((void)load_model(bad_number), std::runtime_error);

  // An absurd element count (exceeds the sanity limit).
  corrupt = text;
  const auto coef_pos = corrupt.find("coef ");
  corrupt.replace(coef_pos, 7, "coef 99999999999999");
  std::istringstream bad_count(corrupt);
  EXPECT_THROW((void)load_model(bad_count), std::runtime_error);

  // A wrong field name.
  corrupt = text;
  corrupt.replace(corrupt.find("coef"), 4, "cofe");
  std::istringstream bad_key(corrupt);
  EXPECT_THROW((void)load_model(bad_key), std::runtime_error);

  // A seed beyond 64 bits, which strtoull would clamp to 2^64 - 1.
  DecisionTreeRegressor tree;
  tree.fit(train.x, train.y);
  corrupt = replace_token_after(save_to_string(tree), "tree_config", 4,
                                "99999999999999999999999");
  std::istringstream bad_seed(corrupt);
  EXPECT_THROW((void)load_model(bad_seed), std::runtime_error);
}

TEST(Serialize, RejectsCountsLargerThanTheStreamWithoutAllocating) {
  // Each count is within the sanity limit but far beyond the values that
  // follow it. The loaders grow their storage as values are read, so each
  // file fails at its end with a runtime_error instead of first sizing a
  // multi-GiB allocation from the count.
  const Problem train = make_problem(30, 3, 0x4a);
  const auto saved = [&](const std::string& name) {
    auto model = make_model(name);
    model->fit(train.x, train.y);
    return save_to_string(*model);
  };
  DecisionTreeRegressor tree;
  tree.fit(train.x, train.y);
  const std::string knn = saved("knn_paper");
  const std::string cases[] = {
      replace_token_after(saved("linear"), "coef", 0, "4294967296"),
      replace_token_after(save_to_string(tree), "nodes", 0, "4294967296"),
      replace_token_after(saved("random_forest"), "trees", 0, "4294967296"),
      // 65536 x 65536 is exactly the matrix element limit.
      replace_token_after(replace_token_after(knn, "train_x", 0, "65536"),
                          "train_x", 1, "65536"),
  };
  for (const std::string& corrupt : cases) {
    std::istringstream is(corrupt);
    EXPECT_THROW((void)load_model(is), std::runtime_error)
        << corrupt.substr(0, 200);
  }
}

TEST(Serialize, RejectsOutOfRangeTreeChildren) {
  const Problem train = make_problem(40, 3, 0x28);
  DecisionTreeRegressor tree;
  tree.fit(train.x, train.y);
  std::string text = save_to_string(tree);
  // Corrupt the first split node's left-child index to a cycle (0 -> itself).
  const auto nodes_pos = text.find("nodes ");
  ASSERT_NE(nodes_pos, std::string::npos);
  // The first node line follows the "nodes <count>\n" line; a split node's
  // fields are "<feature> <threshold> <left> <right> <value>".
  std::istringstream probe(text.substr(nodes_pos));
  std::string tok;
  probe >> tok;  // "nodes"
  std::size_t count = 0;
  probe >> count;
  ASSERT_GT(count, 1u);  // the problem is non-trivial, the root must split
  std::uint32_t feature = 0;
  double threshold = 0.0;
  std::uint32_t left = 0;
  probe >> feature >> threshold >> left;
  ASSERT_NE(feature, ~std::uint32_t{0});
  const std::string needle = " " + std::to_string(left) + " ";
  const auto left_pos = text.find(needle, nodes_pos);
  ASSERT_NE(left_pos, std::string::npos);
  text.replace(left_pos, needle.size(), " 0 ");
  std::istringstream is(text);
  EXPECT_THROW((void)load_model(is), std::runtime_error);
}

TEST(Serialize, LoadedModelKeepsServingAfterFurtherStreamData) {
  // Two models back to back in one stream (the ensemble/nested case).
  const Problem train = make_problem(25, 4, 0x39);
  auto first = make_model("linear");
  auto second = make_model("ridge");
  first->fit(train.x, train.y);
  second->fit(train.x, train.y);
  std::ostringstream os;
  first->save(os);
  second->save(os);
  std::istringstream is(os.str());
  const auto a = load_model(is);
  const auto b = load_model(is);
  EXPECT_EQ(a->name(), "linear_least_squares");
  EXPECT_EQ(b->name(), "scaled_ridge");
}

}  // namespace
}  // namespace ffr::ml
