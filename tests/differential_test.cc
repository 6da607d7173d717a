// Differential correctness harness: seed-replayable random tables and
// queries, executed across every layout (naive / NBP / padded / VBP / HBP),
// every kernel tier (forced via kern::ForceTier, same mechanism as the
// ICP_FORCE_KERNEL env var) and thread counts {1, 4}, cross-checked against
// the naive scalar oracle.
//
// On a mismatch the assertion message prints the seed, query, layout, tier
// and thread count; re-running with ICP_DIFF_SEED=<seed> replays exactly
// that table and query set.
//
// Registry coverage (checked by icp_lint ICP004): the engine configs
// below — every layout x {scalar BP, SIMD BP, NBP} x tiers x threads —
// drive each KernelOps slot through the public Execute path:
//   scans reach the scanner word-compare slots and the boolean algebra,
//     // exercises: vbp_scan, hbp_scan, combine_words
//   COUNT and filter densities reach the popcount slots,
//     // exercises: popcount_words, popcount_and
//   SUM/AVG reach the bit-sum slots (lanes 1 and 4) and the HBP in-word
//   sum,
//     // exercises: vbp_bit_sums, vbp_bit_sums_quads, hbp_sum
//   MIN/MAX reach the extreme folds and MEDIAN/RANK the counting step.
//     // exercises: vbp_extreme_fold, hbp_extreme_fold, masked_popcount
// and a second test packs the tables under every tier (the VBP segment
// transpose), decodes their codes back (its inverse, as serialization
// does) and groups by a VBP dictionary column (group-by reads the rows
// that pass straight from the planes).
//     // exercises: vbp_pack, vbp_unpack, vbp_select

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/table.h"
#include "simd/dispatch.h"
#include "util/random.h"

namespace icp {
namespace {

// A random predicate leaf; kept as a spec (not a FilterExpr) so the same
// logical filter can be rebuilt against every layout's column.
struct FilterLeafSpec {
  CompareOp op;
  std::int64_t c1;
  std::int64_t c2;
};

struct RandomQuery {
  Query query;
  // 0 leaves = no filter, 1 = single compare, 2 = AND of two compares
  // (drives the scanners' prior/ScanAnd path, where a segment whose prior
  // word is zero must be skipped without being read).
  std::vector<FilterLeafSpec> filter_leaves;
  std::string description;
};

FilterExprPtr BuildFilter(const std::string& column,
                          const std::vector<FilterLeafSpec>& leaves) {
  if (leaves.empty()) return nullptr;
  std::vector<FilterExprPtr> exprs;
  exprs.reserve(leaves.size());
  for (const FilterLeafSpec& leaf : leaves) {
    exprs.push_back(FilterExpr::Compare(column, leaf.op, leaf.c1, leaf.c2));
  }
  if (exprs.size() == 1) return std::move(exprs[0]);
  return FilterExpr::And(std::move(exprs));
}

// One random table: the same value vector encoded under every layout, so a
// single logical query can run against each encoding and must agree.
struct RandomTable {
  Table table;
  std::size_t num_rows = 0;
};

constexpr const char* kLayoutColumns[] = {"v_naive", "v_padded", "v_vbp",
                                          "v_hbp"};

RandomTable MakeRandomTable(std::uint64_t seed) {
  Random rng(seed);
  RandomTable out;
  out.num_rows = 1000 + rng.UniformInt(0, 9000);
  // Random domain: width 1..16 bits, shifted so negative minima are hit too.
  const std::uint64_t width = 1 + rng.UniformInt(0, 15);
  const std::int64_t min_value =
      static_cast<std::int64_t>(rng.UniformInt(0, 2000)) - 1000;
  std::vector<std::int64_t> v(out.num_rows);
  for (auto& x : v) {
    x = min_value + static_cast<std::int64_t>(
                        rng.UniformInt(0, (std::uint64_t{1} << width) - 1));
  }
  ICP_CHECK(out.table.AddColumn("v_naive", v, {.layout = Layout::kNaive})
                .ok());
  ICP_CHECK(out.table.AddColumn("v_padded", v, {.layout = Layout::kPadded})
                .ok());
  ICP_CHECK(out.table.AddColumn("v_vbp", v, {.layout = Layout::kVbp}).ok());
  ICP_CHECK(out.table.AddColumn("v_hbp", v, {.layout = Layout::kHbp}).ok());
  // The same values as a dictionary column to group by.
  ICP_CHECK(out.table
                .AddColumn("g_vbp", v,
                           {.layout = Layout::kVbp, .dictionary = true})
                .ok());
  return out;
}

// A random aggregate + predicate against `column`. The predicate constants
// are drawn wider than the value domain so out-of-domain and empty-result
// cases come up naturally.
RandomQuery MakeRandomQuery(Random& rng, const std::string& column,
                            std::uint64_t num_rows) {
  static const AggKind kAggs[] = {AggKind::kCount, AggKind::kSum,
                                  AggKind::kAvg,   AggKind::kMin,
                                  AggKind::kMax,   AggKind::kMedian,
                                  AggKind::kRank};
  static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                   CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe,
                                   CompareOp::kBetween};
  RandomQuery out;
  out.query.agg = kAggs[rng.UniformInt(0, 6)];
  out.query.agg_column = column;
  if (out.query.agg == AggKind::kRank) {
    out.query.rank = 1 + rng.UniformInt(0, num_rows - 1);
  }
  std::ostringstream desc;
  desc << "agg=" << static_cast<int>(out.query.agg)
       << " rank=" << out.query.rank;
  // 0 leaves 15%, a single compare 55%, an AND of two compares 30% — the
  // conjunction makes the second scan take the prior/ScanAnd kernel path.
  std::size_t num_leaves = 1;
  if (rng.Bernoulli(0.15)) {
    num_leaves = 0;
  } else if (rng.Bernoulli(0.35)) {
    num_leaves = 2;
  }
  if (num_leaves == 0) desc << " filter=none";
  for (std::size_t i = 0; i < num_leaves; ++i) {
    FilterLeafSpec leaf;
    leaf.op = kOps[rng.UniformInt(0, 6)];
    leaf.c1 = static_cast<std::int64_t>(rng.UniformInt(0, 70000)) - 2000;
    leaf.c2 =
        leaf.c1 + static_cast<std::int64_t>(rng.UniformInt(0, 30000));
    out.filter_leaves.push_back(leaf);
    desc << " filter=op" << static_cast<int>(leaf.op) << "(" << leaf.c1
         << "," << leaf.c2 << ")";
  }
  out.query.filter = BuildFilter(column, out.filter_leaves);
  out.description = desc.str();
  return out;
}

// Retargets a query (built against one layout's column) at another layout.
Query Retarget(const RandomQuery& rq, const std::string& column) {
  Query q = rq.query;
  q.agg_column = column;
  q.filter = BuildFilter(column, rq.filter_leaves);
  return q;
}

void ExpectSameResult(const QueryResult& got, const QueryResult& want,
                      const std::string& context) {
  EXPECT_EQ(got.count, want.count) << context;
  EXPECT_EQ(got.code_sum, want.code_sum) << context;
  EXPECT_EQ(got.decoded_value.has_value(), want.decoded_value.has_value())
      << context;
  if (got.decoded_value.has_value() && want.decoded_value.has_value()) {
    EXPECT_EQ(*got.decoded_value, *want.decoded_value) << context;
  }
  // SUM/AVG doubles are computed from (count, code_sum, min) the same way
  // everywhere, so they must match bit-for-bit, not just approximately.
  EXPECT_EQ(got.value, want.value) << context;
}

// Engine configurations exercised per layout. Naive/padded layouts have one
// execution path; VBP/HBP have scalar bit-parallel, SIMD bit-parallel and
// the non-bit-parallel fallback.
std::vector<ExecOptions> ConfigsFor(const std::string& column, int threads) {
  std::vector<ExecOptions> configs;
  if (column == "v_vbp" || column == "v_hbp") {
    configs.push_back(
        {.method = AggMethod::kBitParallel, .threads = threads});
    configs.push_back({.method = AggMethod::kBitParallel,
                       .threads = threads,
                       .simd = true});
    configs.push_back(
        {.method = AggMethod::kNonBitParallel, .threads = threads});
  } else {
    configs.push_back({.threads = threads});
  }
  return configs;
}

std::uint64_t BaseSeed() {
  if (const char* env = std::getenv("ICP_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260805;
}

// Distinct tiers this host can genuinely run. A tier whose ops table
// clamps to a lower tier (unsupported CPU feature or compiled-out TU) is
// skipped with a log line — re-running the lower tier under the higher
// tier's name would report phantom coverage.
std::vector<kern::Tier> CoveredTiers() {
  std::vector<kern::Tier> tiers;
  for (int t = 0; t <= static_cast<int>(kern::Tier::kAvx512); ++t) {
    const auto tier = static_cast<kern::Tier>(t);
    const kern::Tier eff = kern::EffectiveTier(tier);
    if (eff != tier) {
      std::cout << "[ SKIPPED  ] tier '" << kern::TierName(tier)
                << "' clamps to '" << kern::TierName(eff)
                << "' on this host\n";
      continue;
    }
    tiers.push_back(tier);
  }
  return tiers;
}

TEST(DifferentialTest, AllLayoutsTiersAndThreadCountsAgreeWithOracle) {
  const int kSeeds = 4;
  const int kQueriesPerSeed = 6;
  const std::vector<kern::Tier> tiers = CoveredTiers();

  for (int s = 0; s < kSeeds; ++s) {
    const std::uint64_t seed = BaseSeed() + static_cast<std::uint64_t>(s);
    const RandomTable rt = MakeRandomTable(seed);
    Random qrng(seed ^ 0x9E3779B97F4A7C15ULL);

    for (int qi = 0; qi < kQueriesPerSeed; ++qi) {
      const RandomQuery rq =
          MakeRandomQuery(qrng, "v_naive", rt.num_rows);

      // Oracle: naive layout, scalar tier, single thread.
      kern::ForceTier(kern::Tier::kScalar);
      Engine oracle_engine(ExecOptions{.threads = 1});
      auto oracle_or = oracle_engine.Execute(rt.table, rq.query);
      kern::ForceTier(std::nullopt);
      ASSERT_TRUE(oracle_or.ok())
          << "seed=" << seed << " " << rq.description << ": "
          << oracle_or.status().ToString();
      const QueryResult oracle = *oracle_or;

      for (const kern::Tier tier : tiers) {
        kern::ForceTier(tier);
        for (int threads : {1, 4}) {
          for (const char* column : kLayoutColumns) {
            const Query q = Retarget(rq, column);
            for (const ExecOptions& base : ConfigsFor(column, threads)) {
              ExecOptions options = base;
              Engine engine(options);
              auto result = engine.Execute(rt.table, q);
              std::ostringstream context;
              context << "seed=" << seed << " query{" << rq.description
                      << "} layout=" << column
                      << " tier=" << kern::TierName(tier)
                      << " threads=" << threads << " method="
                      << (options.method == AggMethod::kBitParallel ? "bp"
                                                                    : "nbp")
                      << " simd=" << options.simd
                      << " (replay with ICP_DIFF_SEED=" << BaseSeed()
                      << ")";
              ASSERT_TRUE(result.ok())
                  << context.str() << ": " << result.status().ToString();
              ExpectSameResult(*result, oracle, context.str());
            }
          }
        }
        kern::ForceTier(std::nullopt);
      }
    }
  }
}

// Tables packed under each tier answer like the oracle table packed under
// the scalar tier, and decode back to the naive column's codes.
TEST(DifferentialTest, TablesPackedOnEveryTierAgreeWithOracle) {
  const int kSeeds = 3;
  const int kQueriesPerSeed = 6;
  const std::vector<kern::Tier> tiers = CoveredTiers();

  for (int s = 0; s < kSeeds; ++s) {
    const std::uint64_t seed = BaseSeed() + 100 + static_cast<std::uint64_t>(s);
    kern::ForceTier(kern::Tier::kScalar);
    const RandomTable oracle_table = MakeRandomTable(seed);
    kern::ForceTier(std::nullopt);
    const std::size_t n = oracle_table.num_rows;
    std::vector<std::uint64_t> want(n);
    (*oracle_table.table.GetColumn("v_naive"))->DecodeCodes(0, n, want.data());

    for (const kern::Tier tier : tiers) {
      kern::ForceTier(tier);
      const RandomTable rt = MakeRandomTable(seed);
      std::vector<std::uint64_t> got(n);
      for (const char* column : kLayoutColumns) {
        (*rt.table.GetColumn(column))->DecodeCodes(0, n, got.data());
        ASSERT_EQ(got, want) << "seed=" << seed << " layout=" << column
                             << " tier=" << kern::TierName(tier);
      }
      Random qrng(seed ^ 0x9E3779B97F4A7C15ULL);
      for (int qi = 0; qi < kQueriesPerSeed; ++qi) {
        const RandomQuery rq = MakeRandomQuery(qrng, "v_vbp", n);
        Engine engine(ExecOptions{.threads = 1});
        auto oracle_or = engine.Execute(oracle_table.table, rq.query);
        auto result = engine.Execute(rt.table, rq.query);
        const std::string context =
            "seed=" + std::to_string(seed) + " query{" + rq.description +
            "} tier=" + kern::TierName(tier);
        ASSERT_TRUE(oracle_or.ok() && result.ok()) << context;
        ExpectSameResult(*result, *oracle_or, context);

        // SUM of the query's filter, grouped by the dictionary column; the
        // oracle groups on the scalar tier.
        Query grouped;
        grouped.agg = AggKind::kSum;
        grouped.agg_column = "v_vbp";
        grouped.filter = rq.query.filter;
        kern::ForceTier(kern::Tier::kScalar);
        auto oracle_groups =
            engine.ExecuteGroupBy(oracle_table.table, grouped, "g_vbp");
        kern::ForceTier(tier);
        auto groups = engine.ExecuteGroupBy(rt.table, grouped, "g_vbp");
        ASSERT_TRUE(oracle_groups.ok() && groups.ok()) << context;
        ASSERT_EQ(groups->size(), oracle_groups->size()) << context;
        for (std::size_t i = 0; i < groups->size(); ++i) {
          EXPECT_EQ((*groups)[i].first, (*oracle_groups)[i].first) << context;
          ExpectSameResult((*groups)[i].second, (*oracle_groups)[i].second,
                           context + " group#" + std::to_string(i));
        }
      }
      kern::ForceTier(std::nullopt);
    }
  }
}

// The env-var override path: ICP_FORCE_KERNEL is read once at startup, so
// this test only checks that a forced tier (exported by the CI job) is
// reflected by ActiveTier(). A host that cannot run the requested tier
// skips EXPLICITLY instead of silently re-asserting the clamped tier —
// a forced-tier CI job that skips is visible; one that quietly tests a
// lower tier under the requested tier's name is not.
TEST(DifferentialTest, ActiveTierMatchesForcedEnvironment) {
  const char* forced = std::getenv("ICP_FORCE_KERNEL");
  if (forced == nullptr) {
    GTEST_SKIP() << "ICP_FORCE_KERNEL not set";
  }
  kern::Tier want;
  ASSERT_TRUE(kern::ParseTier(forced, &want))
      << "unparseable ICP_FORCE_KERNEL=" << forced;
  if (kern::EffectiveTier(want) != want) {
    GTEST_SKIP() << "ICP_FORCE_KERNEL=" << forced
                 << " unsupported on this CPU (clamps to "
                 << kern::TierName(kern::EffectiveTier(want))
                 << "); forced-tier coverage for this tier NOT exercised";
  }
  EXPECT_EQ(kern::ActiveTier(), want);
  EXPECT_EQ(kern::EffectiveTier(kern::ActiveTier()), want);
}

}  // namespace
}  // namespace icp
