#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "engine/expression.h"
#include "engine/table.h"
#include "util/random.h"

namespace icp {
namespace {

// A small sensor-style table used across tests.
struct Fixture {
  Table table;
  std::vector<std::int64_t> temperature;  // [-40, 60]
  std::vector<std::int64_t> humidity;     // [0, 100]
  std::vector<std::int64_t> station;      // sparse ids (dictionary)

  explicit Fixture(Layout layout, std::size_t n = 3000) {
    Random rng(2024);
    temperature.resize(n);
    humidity.resize(n);
    station.resize(n);
    const std::int64_t ids[4] = {1001, 2002, 3003, 9009};
    for (std::size_t i = 0; i < n; ++i) {
      temperature[i] = static_cast<std::int64_t>(rng.UniformInt(0, 100)) - 40;
      humidity[i] = static_cast<std::int64_t>(rng.UniformInt(0, 100));
      station[i] = ids[rng.UniformInt(0, 3)];
    }
    ICP_CHECK(table.AddColumn("temperature", temperature, {.layout = layout})
                  .ok());
    ICP_CHECK(table.AddColumn("humidity", humidity, {.layout = layout}).ok());
    ICP_CHECK(table
                  .AddColumn("station", station,
                             {.layout = layout, .dictionary = true})
                  .ok());
  }

  template <typename Pred>
  std::vector<std::int64_t> Filtered(const std::vector<std::int64_t>& col,
                                     Pred pred) const {
    std::vector<std::int64_t> out;
    for (std::size_t i = 0; i < col.size(); ++i) {
      if (pred(i)) out.push_back(col[i]);
    }
    return out;
  }
};

TEST(TableTest, BasicProperties) {
  Fixture fx(Layout::kVbp, 500);
  EXPECT_EQ(fx.table.num_rows(), 500u);
  EXPECT_EQ(fx.table.num_columns(), 3u);
  auto col = fx.table.GetColumn("temperature");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->bit_width(), 7);  // range [-40, 60] -> 101 values
  EXPECT_FALSE(fx.table.GetColumn("missing").ok());
}

TEST(TableTest, RowCountMismatchRejected) {
  Table table;
  ASSERT_TRUE(table.AddColumn("a", {1, 2, 3}, {}).ok());
  EXPECT_FALSE(table.AddColumn("b", {1, 2}, {}).ok());
  EXPECT_FALSE(table.AddColumn("a", {4, 5, 6}, {}).ok());  // duplicate
}

TEST(TableTest, EncodedColumn) {
  Table table;
  ASSERT_TRUE(
      table.AddEncodedColumn("codes", {0, 5, 7}, 3, {.layout = Layout::kHbp})
          .ok());
  EXPECT_FALSE(
      table.AddEncodedColumn("bad", {0, 9}, 3, {.layout = Layout::kHbp})
          .ok());  // 9 needs 4 bits
}

TEST(TableTest, BitWidthOverride) {
  Table table;
  ASSERT_TRUE(table.AddColumn("x", {0, 100}, {.bit_width = 25}).ok());
  auto col = table.GetColumn("x");
  EXPECT_EQ((*col)->bit_width(), 25);
  EXPECT_FALSE(table.AddColumn("y", {0, 100}, {.bit_width = 3}).ok());
}

class EngineLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(EngineLayoutTest, SumWithFilter) {
  Fixture fx(GetParam());
  Engine engine;
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "temperature";
  q.filter = FilterExpr::Compare("humidity", CompareOp::kLt, 50);
  auto result = engine.Execute(fx.table, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  double expected = 0;
  std::uint64_t expected_count = 0;
  for (std::size_t i = 0; i < fx.table.num_rows(); ++i) {
    if (fx.humidity[i] < 50) {
      expected += static_cast<double>(fx.temperature[i]);
      ++expected_count;
    }
  }
  EXPECT_EQ(result->count, expected_count);
  EXPECT_DOUBLE_EQ(result->value, expected);
}

TEST_P(EngineLayoutTest, ComplexPredicate) {
  Fixture fx(GetParam());
  Engine engine;
  Query q;
  q.agg = AggKind::kCount;
  q.agg_column = "temperature";
  // (temp BETWEEN 0 AND 25 AND humidity >= 30) OR station == 9009
  q.filter = FilterExpr::Or(
      {FilterExpr::And(
           {FilterExpr::Between("temperature", 0, 25),
            FilterExpr::Compare("humidity", CompareOp::kGe, 30)}),
       FilterExpr::Compare("station", CompareOp::kEq, 9009)});
  auto result = engine.Execute(fx.table, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < fx.table.num_rows(); ++i) {
    const bool pass = (fx.temperature[i] >= 0 && fx.temperature[i] <= 25 &&
                       fx.humidity[i] >= 30) ||
                      fx.station[i] == 9009;
    expected += pass;
  }
  EXPECT_EQ(result->count, expected);
}

TEST_P(EngineLayoutTest, MinMaxMedianDecoded) {
  Fixture fx(GetParam());
  Engine engine;
  auto passing = fx.Filtered(fx.temperature, [&](std::size_t i) {
    return fx.humidity[i] > 80;
  });
  std::sort(passing.begin(), passing.end());
  ASSERT_FALSE(passing.empty());

  Query q;
  q.agg_column = "temperature";
  q.filter = FilterExpr::Compare("humidity", CompareOp::kGt, 80);

  q.agg = AggKind::kMin;
  auto min = engine.Execute(fx.table, q);
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->decoded_value, std::optional(passing.front()));

  q.agg = AggKind::kMax;
  auto max = engine.Execute(fx.table, q);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->decoded_value, std::optional(passing.back()));

  q.agg = AggKind::kMedian;
  auto median = engine.Execute(fx.table, q);
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(median->decoded_value,
            std::optional(passing[(passing.size() + 1) / 2 - 1]));
}

TEST_P(EngineLayoutTest, AvgMatchesReference) {
  Fixture fx(GetParam());
  Engine engine;
  Query q;
  q.agg = AggKind::kAvg;
  q.agg_column = "humidity";
  q.filter = FilterExpr::Compare("temperature", CompareOp::kLe, 0);
  auto result = engine.Execute(fx.table, q);
  ASSERT_TRUE(result.ok());
  double sum = 0;
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < fx.table.num_rows(); ++i) {
    if (fx.temperature[i] <= 0) {
      sum += static_cast<double>(fx.humidity[i]);
      ++count;
    }
  }
  ASSERT_GT(count, 0u);
  EXPECT_NEAR(result->value, sum / static_cast<double>(count), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Layouts, EngineLayoutTest,
                         ::testing::Values(Layout::kVbp, Layout::kHbp,
                                           Layout::kNaive));

// All execution configurations must agree.
//
// gtest has no printer for ConfigCase, so it names each case after the
// object's bytes ("16-byte object <...>"). The three bytes after `simd` used
// to be padding that was never written, which made the names change from run
// to run. `name_tail` fills them explicitly with the bytes the cases' recorded
// names carry, so every case keeps one name; the test never reads it.
struct ConfigCase {
  Layout layout;
  AggMethod method;
  int threads;
  bool simd;
  std::array<std::uint8_t, 3> name_tail;
};
static_assert(sizeof(ConfigCase) == 16);
static_assert(std::has_unique_object_representations_v<ConfigCase>,
              "ConfigCase must have no padding: its bytes name the test cases");

class EngineConfigTest : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(EngineConfigTest, AllConfigsAgree) {
  const ConfigCase c = GetParam();
  Fixture fx(c.layout);
  Engine engine(ExecOptions{.method = c.method,
                            .threads = c.threads,
                            .simd = c.simd});
  Query q;
  q.agg_column = "temperature";
  q.filter = FilterExpr::And(
      {FilterExpr::Compare("humidity", CompareOp::kGe, 20),
       FilterExpr::Compare("humidity", CompareOp::kLe, 70)});

  auto passing = fx.Filtered(fx.temperature, [&](std::size_t i) {
    return fx.humidity[i] >= 20 && fx.humidity[i] <= 70;
  });
  std::sort(passing.begin(), passing.end());
  ASSERT_FALSE(passing.empty());
  double sum = 0;
  for (auto v : passing) sum += static_cast<double>(v);

  q.agg = AggKind::kSum;
  auto r = engine.Execute(fx.table, q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->value, sum);

  q.agg = AggKind::kMedian;
  r = engine.Execute(fx.table, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->decoded_value,
            std::optional(passing[(passing.size() + 1) / 2 - 1]));

  q.agg = AggKind::kMin;
  r = engine.Execute(fx.table, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->decoded_value, std::optional(passing.front()));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EngineConfigTest,
    ::testing::Values(
        ConfigCase{Layout::kVbp, AggMethod::kBitParallel, 1, false,
                   {0x55, 0x00, 0x00}},
        ConfigCase{Layout::kVbp, AggMethod::kBitParallel, 4, false,
                   {0x00, 0x00, 0x00}},
        ConfigCase{Layout::kVbp, AggMethod::kBitParallel, 1, true,
                   {0x7F, 0x00, 0x00}},
        ConfigCase{Layout::kVbp, AggMethod::kBitParallel, 4, true,
                   {0x31, 0xC0, 0x00}},
        ConfigCase{Layout::kVbp, AggMethod::kNonBitParallel, 1, false,
                   {0xFF, 0xFF, 0xFF}},
        ConfigCase{Layout::kVbp, AggMethod::kNonBitParallel, 4, false,
                   {0x55, 0x00, 0x00}},
        ConfigCase{Layout::kHbp, AggMethod::kBitParallel, 1, false,
                   {0x55, 0x00, 0x00}},
        ConfigCase{Layout::kHbp, AggMethod::kBitParallel, 4, false,
                   {0x7F, 0x00, 0x00}},
        ConfigCase{Layout::kHbp, AggMethod::kBitParallel, 1, true,
                   {0x31, 0xC0, 0x00}},
        ConfigCase{Layout::kHbp, AggMethod::kBitParallel, 4, true,
                   {0x31, 0xC0, 0x00}},
        ConfigCase{Layout::kHbp, AggMethod::kNonBitParallel, 1, false,
                   {0xFF, 0xFF, 0xFF}},
        ConfigCase{Layout::kHbp, AggMethod::kNonBitParallel, 4, false,
                   {0x00, 0x00, 0x00}}));

TEST(EngineTest, ConstantsOutsideDomain) {
  Fixture fx(Layout::kVbp, 600);
  Engine engine;
  Query q;
  q.agg = AggKind::kCount;
  q.agg_column = "temperature";
  // temperature < -100: nothing (below domain).
  q.filter = FilterExpr::Compare("temperature", CompareOp::kLt, -100);
  EXPECT_EQ(engine.Execute(fx.table, q)->count, 0u);
  // temperature >= -100: everything.
  q.filter = FilterExpr::Compare("temperature", CompareOp::kGe, -100);
  EXPECT_EQ(engine.Execute(fx.table, q)->count, 600u);
  // equality against a value absent from the dictionary.
  q.filter = FilterExpr::Compare("station", CompareOp::kEq, 1234);
  EXPECT_EQ(engine.Execute(fx.table, q)->count, 0u);
  // range over the dictionary picks the ids in [2000, 4000].
  q.filter = FilterExpr::Between("station", 2000, 4000);
  std::uint64_t expected = 0;
  for (auto id : fx.station) expected += id == 2002 || id == 3003;
  EXPECT_EQ(engine.Execute(fx.table, q)->count, expected);
}

TEST(EngineTest, NoFilterMeansAllRows) {
  Fixture fx(Layout::kHbp, 500);
  Engine engine;
  Query q;
  q.agg = AggKind::kCount;
  q.agg_column = "humidity";
  auto r = engine.Execute(fx.table, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->count, 500u);
}

TEST(EngineTest, NotExpression) {
  Fixture fx(Layout::kVbp, 500);
  Engine engine;
  Query q;
  q.agg = AggKind::kCount;
  q.agg_column = "humidity";
  q.filter =
      FilterExpr::Not(FilterExpr::Compare("humidity", CompareOp::kLt, 50));
  std::uint64_t expected = 0;
  for (auto h : fx.humidity) expected += h >= 50;
  EXPECT_EQ(engine.Execute(fx.table, q)->count, expected);
}

TEST(EngineTest, SumOverDictionaryRejected) {
  Fixture fx(Layout::kVbp, 100);
  Engine engine;
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "station";
  auto r = engine.Execute(fx.table, q);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, UnknownColumnsRejected) {
  Fixture fx(Layout::kVbp, 100);
  Engine engine;
  Query q;
  q.agg = AggKind::kCount;
  q.agg_column = "nope";
  EXPECT_EQ(engine.Execute(fx.table, q).status().code(),
            StatusCode::kNotFound);
  q.agg_column = "humidity";
  q.filter = FilterExpr::Compare("nope", CompareOp::kEq, 1);
  EXPECT_EQ(engine.Execute(fx.table, q).status().code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, MixedLayoutPredicates) {
  // Predicates across columns stored in different layouts combine via
  // filter reshaping.
  Random rng(9);
  std::vector<std::int64_t> a(800), b(800);
  for (std::size_t i = 0; i < 800; ++i) {
    a[i] = static_cast<std::int64_t>(rng.UniformInt(0, 99));
    b[i] = static_cast<std::int64_t>(rng.UniformInt(0, 99));
  }
  Table table;
  ASSERT_TRUE(table.AddColumn("a", a, {.layout = Layout::kVbp}).ok());
  ASSERT_TRUE(
      table.AddColumn("b", b, {.layout = Layout::kHbp, .tau = 4}).ok());
  Engine engine;
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "b";
  q.filter = FilterExpr::And(
      {FilterExpr::Compare("a", CompareOp::kLt, 30),
       FilterExpr::Compare("b", CompareOp::kGe, 10)});
  auto r = engine.Execute(table, q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  double expected = 0;
  for (std::size_t i = 0; i < 800; ++i) {
    if (a[i] < 30 && b[i] >= 10) expected += static_cast<double>(b[i]);
  }
  EXPECT_DOUBLE_EQ(r->value, expected);
}

TEST(EngineTest, FilterExprToString) {
  auto e = FilterExpr::Or(
      {FilterExpr::And({FilterExpr::Compare("a", CompareOp::kLt, 4),
                        FilterExpr::Between("b", 1, 9)}),
       FilterExpr::Not(FilterExpr::Compare("c", CompareOp::kEq, -2))});
  EXPECT_EQ(e->ToString(),
            "((a < 4 AND b BETWEEN 1 AND 9) OR NOT c == -2)");
}

TEST(EngineTest, ExecuteMultiSharedScan) {
  Fixture fx(Layout::kHbp, 1500);
  Engine engine;
  MultiQuery mq;
  mq.filter = FilterExpr::Compare("humidity", CompareOp::kGe, 40);
  mq.aggregates = {{AggKind::kCount, "temperature"},
                   {AggKind::kSum, "temperature"},
                   {AggKind::kMin, "humidity"},
                   {AggKind::kMax, "temperature"},
                   {AggKind::kMedian, "humidity"}};
  auto results = engine.ExecuteMulti(fx.table, mq);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 5u);

  // Cross-check each against the single-query path.
  for (std::size_t i = 0; i < mq.aggregates.size(); ++i) {
    Query q{.agg = mq.aggregates[i].first,
            .agg_column = mq.aggregates[i].second,
            .filter = mq.filter};
    auto single = engine.Execute(fx.table, q);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*results)[i].count, single->count) << i;
    EXPECT_EQ((*results)[i].decoded_value, single->decoded_value) << i;
    EXPECT_DOUBLE_EQ((*results)[i].value, single->value) << i;
  }
  // All results share the one scan's cost.
  EXPECT_EQ((*results)[0].scan_cycles, (*results)[4].scan_cycles);
}

TEST(EngineTest, RankAggregate) {
  Fixture fx(Layout::kVbp, 1200);
  auto passing = fx.Filtered(fx.temperature, [&](std::size_t i) {
    return fx.humidity[i] < 50;
  });
  std::sort(passing.begin(), passing.end());
  ASSERT_GT(passing.size(), 100u);

  for (int threads : {1, 4}) {
    for (bool simd : {false, true}) {
      for (AggMethod method :
           {AggMethod::kBitParallel, AggMethod::kNonBitParallel}) {
        Engine engine(
            ExecOptions{.method = method, .threads = threads, .simd = simd});
        Query q;
        q.agg = AggKind::kRank;
        q.agg_column = "temperature";
        q.filter = FilterExpr::Compare("humidity", CompareOp::kLt, 50);
        // p90 rank.
        q.rank = static_cast<std::uint64_t>(0.9 * passing.size());
        auto r = engine.Execute(fx.table, q);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r->decoded_value, std::optional(passing[q.rank - 1]))
            << "threads=" << threads << " simd=" << simd;
        // Out-of-range rank yields no value.
        q.rank = passing.size() + 1;
        r = engine.Execute(fx.table, q);
        ASSERT_TRUE(r.ok());
        EXPECT_FALSE(r->decoded_value.has_value());
      }
    }
  }
}

TEST(EngineTest, InPredicate) {
  Fixture fx(Layout::kVbp, 900);
  Engine engine;
  Query q;
  q.agg = AggKind::kCount;
  q.agg_column = "humidity";
  q.filter = FilterExpr::In("station", {2002, 9009});
  std::uint64_t expected = 0;
  for (auto id : fx.station) expected += id == 2002 || id == 9009;
  EXPECT_EQ(engine.Execute(fx.table, q)->count, expected);
}

TEST(EngineTest, GroupByAggregation) {
  Fixture fx(Layout::kVbp, 2000);
  Engine engine;
  Query q;
  q.agg = AggKind::kAvg;
  q.agg_column = "temperature";
  q.filter = FilterExpr::Compare("humidity", CompareOp::kLt, 60);
  auto groups = engine.ExecuteGroupBy(fx.table, q, "station");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 4u);  // all 4 station ids have rows

  for (const auto& [station_id, result] : *groups) {
    double sum = 0;
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < fx.table.num_rows(); ++i) {
      if (fx.station[i] == station_id && fx.humidity[i] < 60) {
        sum += static_cast<double>(fx.temperature[i]);
        ++count;
      }
    }
    ASSERT_GT(count, 0u);
    EXPECT_EQ(result.count, count) << station_id;
    EXPECT_NEAR(result.value, sum / static_cast<double>(count), 1e-9)
        << station_id;
  }
  // Group values are returned in dictionary (sorted) order.
  EXPECT_EQ((*groups)[0].first, 1001);
  EXPECT_EQ((*groups)[3].first, 9009);
}

TEST(EngineTest, GroupByRequiresDictionary) {
  Fixture fx(Layout::kVbp, 200);
  Engine engine;
  Query q;
  q.agg = AggKind::kCount;
  q.agg_column = "humidity";
  auto result = engine.ExecuteGroupBy(fx.table, q, "humidity");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, GroupBySkipsEmptyGroups) {
  Table table;
  ASSERT_TRUE(table.AddColumn("g", {10, 10, 20, 20, 30},
                              {.dictionary = true})
                  .ok());
  ASSERT_TRUE(table.AddColumn("v", {1, 2, 3, 4, 5}, {}).ok());
  Engine engine;
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "v";
  q.filter = FilterExpr::Compare("v", CompareOp::kLe, 2);  // only g=10 rows
  auto groups = engine.ExecuteGroupBy(table, q, "g");
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 1u);
  EXPECT_EQ((*groups)[0].first, 10);
  EXPECT_DOUBLE_EQ((*groups)[0].second.value, 3.0);
}

TEST(EngineTest, TimingCountersPopulated) {
  Fixture fx(Layout::kVbp, 2000);
  Engine engine;
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "temperature";
  q.filter = FilterExpr::Compare("humidity", CompareOp::kLt, 50);
  auto r = engine.Execute(fx.table, q);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->scan_cycles, 0u);
  EXPECT_GT(r->agg_cycles, 0u);
}

}  // namespace
}  // namespace icp
