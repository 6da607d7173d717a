#include "io/csv_loader.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>

#include "engine/engine.h"
#include "obs/obs.h"
#include "util/dates.h"
#include "util/failpoint.h"

namespace icp {
namespace {

using io::CsvColumnSpec;
using io::CsvOptions;
using io::LoadCsv;
using io::LoadCsvFromString;

const std::vector<CsvColumnSpec> kOrderSpecs = {
    {.name = "order_id", .type = CsvColumnSpec::Type::kInt64, .storage = {}},
    {.name = "price",
     .type = CsvColumnSpec::Type::kDecimal,
     .scale = 2,
     .storage = {.layout = Layout::kHbp}},
    {.name = "order_date",
     .type = CsvColumnSpec::Type::kDate,
     .storage = {}},
    {.name = "quantity", .type = CsvColumnSpec::Type::kInt64, .storage = {}},
};

constexpr const char* kOrdersCsv =
    "order_id,price,order_date,quantity\n"
    "1,19.99,2024-01-15,3\n"
    "2,5.00,2024-01-16,10\n"
    "3,129.95,2024-02-01,1\n"
    "4,0.50,2024-02-03,7\n";

TEST(CsvLoaderTest, BasicParse) {
  auto table = LoadCsvFromString(kOrdersCsv, kOrderSpecs);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 4u);
  EXPECT_EQ(table->num_columns(), 4u);

  std::uint64_t codes[4];
  const auto& price = **table->GetColumn("price");
  price.DecodeCodes(0, 4, codes);
  EXPECT_EQ(price.encoder().Decode(codes[0]), 1999);  // cents
  EXPECT_EQ(price.encoder().Decode(codes[3]), 50);
  const auto& date = **table->GetColumn("order_date");
  date.DecodeCodes(0, 1, codes);
  EXPECT_EQ(date.encoder().Decode(codes[0]), DaysFromCivil(2024, 1, 15));
}

TEST(CsvLoaderTest, QueriesOverLoadedTable) {
  auto table = LoadCsvFromString(kOrdersCsv, kOrderSpecs);
  ASSERT_TRUE(table.ok());
  Engine engine;
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "price";
  q.filter = FilterExpr::Compare("quantity", CompareOp::kGe, 3);
  auto r = engine.Execute(*table, q);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->value, 1999 + 500 + 50);  // cents
}

TEST(CsvLoaderTest, EmptyFieldsBecomeNulls) {
  const char* csv =
      "a,b\n"
      "1,10\n"
      "2,\n"
      "3,30\n";
  auto table = LoadCsvFromString(
      csv, {{.name = "a",
             .type = io::CsvColumnSpec::Type::kInt64,
             .scale = 2,
             .storage = {}},
            {.name = "b",
             .type = io::CsvColumnSpec::Type::kInt64,
             .scale = 2,
             .storage = {}}});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const auto& b = **table->GetColumn("b");
  EXPECT_TRUE(b.nullable());
  EXPECT_EQ(b.validity().CountOnes(), 2u);

  Engine engine;
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "b";
  auto r = engine.Execute(*table, q);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->value, 40.0);  // NULL ignored
  EXPECT_EQ(r->count, 2u);
}

TEST(CsvLoaderTest, SkippedColumns) {
  const char* csv = "a,junk,b\n1,xyz,2\n3,abc,4\n";
  auto table = LoadCsvFromString(
      csv, {{.name = "a", .storage = {}},
            {.name = "junk",
             .type = CsvColumnSpec::Type::kSkip,
             .scale = 0,
             .storage = {}},
            {.name = "b", .storage = {}}});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_columns(), 2u);
  EXPECT_TRUE(table->GetColumn("a").ok());
  EXPECT_FALSE(table->GetColumn("junk").ok());
}

TEST(CsvLoaderTest, HeaderlessAndDelimiter) {
  const char* csv = "1|2\n3|4\n";
  CsvOptions options;
  options.delimiter = '|';
  options.has_header = false;
  auto table = LoadCsvFromString(
      csv, {{.name = "x", .storage = {}}, {.name = "y", .storage = {}}},
      options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvLoaderTest, MaxRows) {
  CsvOptions options;
  options.max_rows = 2;
  auto table = LoadCsvFromString(kOrdersCsv, kOrderSpecs, options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvLoaderTest, ErrorsCarryLineNumbers) {
  const char* csv = "a\n1\nnot_a_number\n";
  auto table = LoadCsvFromString(csv, {{.name = "a", .storage = {}}});
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos);

  const char* bad_fields = "a,b\n1,2\n3\n";
  auto t2 = LoadCsvFromString(
      bad_fields, {{.name = "a", .storage = {}}, {.name = "b",
                                                  .storage = {}}});
  ASSERT_FALSE(t2.ok());
  EXPECT_NE(t2.status().message().find("expected 2 fields"),
            std::string::npos);
}

TEST(CsvLoaderTest, ParseDateEdgeCases) {
  EXPECT_TRUE(io::ParseDate("1996-02-29").ok());  // leap day
  EXPECT_FALSE(io::ParseDate("1996-13-01").ok());
  EXPECT_FALSE(io::ParseDate("96-01-01").ok());
  EXPECT_FALSE(io::ParseDate("1996/01/01").ok());
  EXPECT_EQ(*io::ParseDate("1970-01-01"), 0);
}

TEST(CsvLoaderTest, ParseDecimalEdgeCases) {
  EXPECT_EQ(*io::ParseDecimal("12.34", 2), 1234);
  EXPECT_EQ(*io::ParseDecimal("12.3", 2), 1230);
  EXPECT_EQ(*io::ParseDecimal("12", 2), 1200);
  EXPECT_EQ(*io::ParseDecimal("-0.05", 2), -5);
  EXPECT_EQ(*io::ParseDecimal("-3.50", 2), -350);
  EXPECT_EQ(*io::ParseDecimal("7", 0), 7);
  EXPECT_FALSE(io::ParseDecimal("1.234", 2).ok());  // too many digits
  EXPECT_FALSE(io::ParseDecimal("abc", 2).ok());
}

TEST(CsvLoaderTest, DecimalOverflowIsOutOfRangeNotWraparound) {
  // INT64_MAX is 9223372036854775807; scaling these by 10^scale overflows
  // even though both halves parse cleanly on their own.
  auto r = io::ParseDecimal("9223372036854775.808", 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  r = io::ParseDecimal("-9223372036854775.809", 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  r = io::ParseDecimal("92233720368547758070", 0);
  EXPECT_FALSE(r.ok());  // from_chars catches the unscaled overflow

  // The scaled extremes that do fit must still round-trip exactly.
  EXPECT_EQ(*io::ParseDecimal("9223372036854775.807", 3),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(*io::ParseDecimal("-9223372036854775.808", 3),
            std::numeric_limits<std::int64_t>::min());
}

TEST(CsvLoaderTest, DecimalOverflowReportsLineNumber) {
  const char* csv = "x\n1.50\n9223372036854775.808\n";
  auto table = io::LoadCsvFromString(
      csv, {{.name = "x",
             .type = io::CsvColumnSpec::Type::kDecimal,
             .scale = 3}},
      {.has_header = true});
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos)
      << table.status().message();
}

class CsvRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::Armed()) GTEST_SKIP() << "built without ICP_FAILPOINTS";
    fail::DisableAll();
  }
  void TearDown() override { fail::DisableAll(); }
};

TEST_F(CsvRetryTest, TransientStreamErrorIsRetriedAndSucceeds) {
#if ICP_OBS
  const std::uint64_t retries_before = obs::IoRetries().Load();
#endif
  fail::EnableOneShot("csv_loader/read_transient");
  auto table = LoadCsvFromString(kOrdersCsv, kOrderSpecs);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 4u);
  EXPECT_EQ(fail::TriggerCount("csv_loader/read_transient"), 1u);
#if ICP_OBS
  EXPECT_EQ(obs::IoRetries().Load(), retries_before + 1);
#endif
}

TEST_F(CsvRetryTest, PersistentTransientErrorFailsWithBoundedRetries) {
  fail::EnableAlways("csv_loader/read_transient");
  auto table = LoadCsvFromString(kOrdersCsv, kOrderSpecs);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInternal);
  // Exhaustion reports where the load gave up.
  EXPECT_NE(table.status().message().find("after"), std::string::npos);
}

TEST(CsvLoaderTest, LoadFromFile) {
  const std::string path =
      std::string(::testing::TempDir()) + "/orders.csv";
  std::ofstream(path) << kOrdersCsv;
  auto table = LoadCsv(path, kOrderSpecs);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 4u);
  EXPECT_FALSE(LoadCsv("/nonexistent/file.csv", kOrderSpecs).ok());
}

}  // namespace
}  // namespace icp
