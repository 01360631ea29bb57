// Unit tests for src/util: RNG determinism and statistics, CSV round trips,
// thread pool correctness, table formatting.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace ffr::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    ASSERT_GE(u, -2.0);
    ASSERT_LT(u, 3.0);
  }
}

TEST(Rng, LogUniformCoversDecades) {
  Rng rng(11);
  int low_decade = 0;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.log_uniform(1e-3, 1e3);
    ASSERT_GE(v, 1e-3);
    ASSERT_LE(v, 1e3 * (1 + 1e-9));
    if (v < 1.0) ++low_decade;
  }
  // Half the draws should land below the geometric midpoint.
  EXPECT_NEAR(low_decade, 500, 80);
}

TEST(Rng, LogUniformRejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW((void)rng.log_uniform(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)rng.log_uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, BelowIsUnbiasedOverSmallRange) {
  Rng rng(5);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.below(5)];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 400);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(5);
  EXPECT_THROW((void)rng.below(0), std::invalid_argument);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(17);
  const auto perm = rng.permutation(100);
  std::set<std::size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  const auto sample = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto i : sample) EXPECT_LT(i, 50u);
}

TEST(Rng, SampleTooManyThrows) {
  Rng rng(19);
  EXPECT_THROW((void)rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng rng(23);
  Rng child = rng.split();
  EXPECT_NE(rng(), child());
}

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
}

TEST(Csv, EscapeQuotesAndSeparators) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RoundTripDoubles) {
  const double value = 0.1234567890123456789;
  const std::string text = CsvWriter::format_double(value);
  EXPECT_EQ(std::stod(text), value);
}

TEST(Csv, ParseSimpleTable) {
  const auto table = parse_csv("a,b,c\n1,2,3\n4,5,6\n");
  EXPECT_EQ(table.header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.rows[1][2], "6");
}

TEST(Csv, ParseQuotedFields) {
  const auto table = parse_csv("x,y\n\"a,b\",\"q\"\"q\"\n");
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.rows[0][0], "a,b");
  EXPECT_EQ(table.rows[0][1], "q\"q");
}

TEST(Csv, ParseCrLf) {
  const auto table = parse_csv("a,b\r\n1,2\r\n");
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.rows[0][1], "2");
}

TEST(Csv, ColumnAsDoubles) {
  const auto table = parse_csv("x,y\n1.5,2\n-3,4\n");
  EXPECT_EQ(table.column_as_doubles("x"), (std::vector<double>{1.5, -3.0}));
  EXPECT_THROW((void)table.column_as_doubles("z"), std::out_of_range);
}

TEST(Csv, FileRoundTrip) {
  CsvTable table;
  table.header = {"name", "value"};
  table.rows = {{"a", "1"}, {"b,c", "2.5"}};
  const auto path = std::filesystem::temp_directory_path() / "ffr_csv_test.csv";
  write_csv_file(path, table);
  const auto read_back = read_csv_file(path);
  EXPECT_EQ(read_back.header, table.header);
  EXPECT_EQ(read_back.rows, table.rows);
  std::filesystem::remove(path);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for_chunked(
      64, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_chunked(
                   10, 1,
                   [&](std::size_t begin, std::size_t, std::size_t) {
                     if (begin == 5) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for_chunked(
      0, 1, [&](std::size_t, std::size_t, std::size_t) { FAIL(); });
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"Model", "R2"});
  table.add_row({"knn", "0.84"});
  table.add_row_numeric("svr", {0.8444}, 3);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("Model"), std::string::npos);
  EXPECT_NE(text.find("0.844"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
}

}  // namespace
}  // namespace ffr::util
