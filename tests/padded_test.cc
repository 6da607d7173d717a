#include "layout/padded_column.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/padded_aggregate.h"
#include "engine/engine.h"
#include "scan/padded_scanner.h"
#include "util/random.h"

namespace icp {
namespace {

std::vector<std::uint64_t> RandomCodes(std::size_t n, int k,
                                       std::uint64_t seed) {
  Random rng(seed);
  std::vector<std::uint64_t> codes(n);
  for (auto& c : codes) c = rng.UniformInt(0, LowMask(k));
  return codes;
}

TEST(PaddedColumnTest, ElementWidthSelection) {
  // Width selection depends only on k; keep the codes valid for k == 1 so
  // the packing contract (codes[i] < 2^k) holds at every width tested.
  const std::vector<std::uint64_t> codes = {1, 0, 1};
  EXPECT_EQ(PaddedColumn::Pack(codes, 1).element_bits(), 8);
  EXPECT_EQ(PaddedColumn::Pack(codes, 8).element_bits(), 8);
  EXPECT_EQ(PaddedColumn::Pack(codes, 9).element_bits(), 16);
  EXPECT_EQ(PaddedColumn::Pack(codes, 16).element_bits(), 16);
  EXPECT_EQ(PaddedColumn::Pack(codes, 25).element_bits(), 32);
  EXPECT_EQ(PaddedColumn::Pack(codes, 33).element_bits(), 64);
}

class PaddedRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(PaddedRoundTripTest, PackThenGetValue) {
  const int k = GetParam();
  const auto codes = RandomCodes(500, k, 4 + k);
  const PaddedColumn col = PaddedColumn::Pack(codes, k);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.GetValue(i), codes[i]) << i;
  }
  // Memory: exactly element_bits / 8 bytes per value (rounded to words).
  EXPECT_GE(col.MemoryBytes() * 8,
            codes.size() * static_cast<std::size_t>(col.element_bits()));
}

INSTANTIATE_TEST_SUITE_P(Widths, PaddedRoundTripTest,
                         ::testing::Values(1, 7, 8, 9, 15, 16, 17, 25, 31,
                                           32, 33, 50));

TEST(PaddedScannerTest, MatchesOracleAcrossOps) {
  const int k = 13;
  const auto codes = RandomCodes(1500, k, 21);
  const PaddedColumn col = PaddedColumn::Pack(codes, k);
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                           CompareOp::kBetween};
  Random rng(9);
  for (CompareOp op : ops) {
    std::uint64_t c1 = rng.UniformInt(0, LowMask(k));
    std::uint64_t c2 = rng.UniformInt(0, LowMask(k));
    if (c1 > c2) std::swap(c1, c2);
    const FilterBitVector f = PaddedScanner::Scan(col, op, c1, c2);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      ASSERT_EQ(f.GetBit(i), EvalCompare(codes[i], op, c1, c2))
          << CompareOpToString(op) << " i=" << i;
    }
  }
  // Degenerate constants.
  EXPECT_EQ(
      PaddedScanner::Scan(col, CompareOp::kLt, LowMask(k) + 10).CountOnes(),
      codes.size());
  EXPECT_EQ(
      PaddedScanner::Scan(col, CompareOp::kGt, LowMask(k) + 10).CountOnes(),
      0u);
}

TEST(PaddedAggregateTest, MatchesReference) {
  const int k = 19;
  const auto codes = RandomCodes(3000, k, 33);
  const PaddedColumn col = PaddedColumn::Pack(codes, k);
  Random rng(5);
  FilterBitVector f(codes.size(), kWordBits);
  std::vector<std::uint64_t> passing;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (rng.Bernoulli(0.4)) {
      f.SetBit(i, true);
      passing.push_back(codes[i]);
    }
  }
  std::sort(passing.begin(), passing.end());
  ASSERT_FALSE(passing.empty());
  UInt128 sum = 0;
  for (auto v : passing) sum += v;

  EXPECT_TRUE(padded::Sum(col, f) == sum);
  EXPECT_EQ(padded::Min(col, f), std::optional(passing.front()));
  EXPECT_EQ(padded::Max(col, f), std::optional(passing.back()));
  EXPECT_EQ(padded::Median(col, f),
            std::optional(passing[(passing.size() + 1) / 2 - 1]));
  EXPECT_EQ(padded::RankSelect(col, f, 3), std::optional(passing[2]));
}

TEST(PaddedAggregateTest, WideSumDraining) {
  // Many max-valued 8-bit elements must not overflow the 64-bit partial.
  const std::vector<std::uint64_t> codes(200000, 255);
  const PaddedColumn col = PaddedColumn::Pack(codes, 8);
  FilterBitVector f(codes.size(), kWordBits);
  f.SetAll();
  EXPECT_TRUE(padded::Sum(col, f) == UInt128{200000} * 255);

  // 64-bit elements wrap the partial within one segment.
  const std::vector<std::uint64_t> wide(1000, LowMask(63));
  const PaddedColumn wide_col = PaddedColumn::Pack(wide, 63);
  FilterBitVector wide_f(wide.size(), kWordBits);
  wide_f.SetAll();
  EXPECT_TRUE(padded::Sum(wide_col, wide_f) == UInt128{1000} * LowMask(63));
}

TEST(PaddedEngineTest, EndToEnd) {
  Random rng(11);
  std::vector<std::int64_t> a(2000), b(2000);
  for (auto& v : a) v = static_cast<std::int64_t>(rng.UniformInt(0, 999));
  for (auto& v : b) v = static_cast<std::int64_t>(rng.UniformInt(0, 99));
  Table table;
  ASSERT_TRUE(table.AddColumn("a", a, {.layout = Layout::kPadded}).ok());
  ASSERT_TRUE(table.AddColumn("b", b, {.layout = Layout::kPadded}).ok());
  Engine engine;
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "a";
  q.filter = FilterExpr::Compare("b", CompareOp::kLt, 50);
  auto r = engine.Execute(table, q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  double expected = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (b[i] < 50) expected += static_cast<double>(a[i]);
  }
  EXPECT_DOUBLE_EQ(r->value, expected);
  EXPECT_STREQ(LayoutToString(Layout::kPadded), "Padded");
}

}  // namespace
}  // namespace icp
