// Group-by differential harness: seed-replayable random dictionary tables
// swept across cardinalities 2^0..2^16, agg layouts (naive / padded / VBP /
// HBP), nullable columns, filters, every kernel tier this host covers and
// thread counts {1, 4, 8}. Both ExecuteGroupBy strategies — the naive
// per-code loop (groupby_threshold = UINT64_MAX) and the single-pass
// operator (groupby_threshold = 1) — are checked bit-for-bit against an
// independent scalar oracle computed from the raw value vectors, and
// against each other.
//
// On a mismatch the assertion message prints the seed, cardinality,
// layout, tier, strategy and thread count; re-running with
// ICP_DIFF_SEED=<seed> replays exactly that table and query set.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/table.h"
#include "obs/query_stats.h"
#include "simd/dispatch.h"
#include "util/bits.h"
#include "util/random.h"

namespace icp {
namespace {

constexpr const char* kLayoutColumns[] = {"v_naive", "v_padded", "v_vbp",
                                          "v_hbp"};

// The same logical data under every agg layout, plus the raw vectors the
// oracle consumes.
struct GroupedTable {
  Table table;
  std::size_t num_rows = 0;
  std::uint64_t cardinality = 0;  // requested dictionary size (2^k)
  std::vector<std::int64_t> group_values;
  std::vector<bool> group_valid;  // empty = not nullable
  std::vector<std::int64_t> agg_values;
  std::vector<bool> agg_valid;  // empty = not nullable
};

// Agg codes are drawn `agg_width` bits wide, agg_width uniform in
// [min_agg_width, max_agg_width].
GroupedTable MakeGroupedTable(std::uint64_t seed, int log2_cardinality,
                              int min_agg_width = 1, int max_agg_width = 13) {
  Random rng(seed);
  GroupedTable out;
  out.num_rows = 2000 + rng.UniformInt(0, 4000);
  out.cardinality = std::uint64_t{1} << log2_cardinality;

  // Sparse group domain (stride > 1) so the dictionary encoder is
  // genuinely exercised; values decode back through the dictionary.
  const std::int64_t group_base =
      static_cast<std::int64_t>(rng.UniformInt(0, 1000)) - 500;
  const std::int64_t group_stride =
      1 + static_cast<std::int64_t>(rng.UniformInt(0, 6));
  out.group_values.resize(out.num_rows);
  for (auto& g : out.group_values) {
    g = group_base +
        group_stride * static_cast<std::int64_t>(
                           rng.UniformInt(0, out.cardinality - 1));
  }
  const bool group_nullable = rng.Bernoulli(0.3);
  if (group_nullable) {
    out.group_valid.resize(out.num_rows);
    for (std::size_t i = 0; i < out.num_rows; ++i) {
      out.group_valid[i] = !rng.Bernoulli(0.05);
    }
  }

  const std::uint64_t agg_width =
      static_cast<std::uint64_t>(min_agg_width) +
      rng.UniformInt(0, static_cast<std::uint64_t>(max_agg_width -
                                                   min_agg_width));
  std::int64_t agg_min =
      static_cast<std::int64_t>(rng.UniformInt(0, 2000)) - 1000;
  // A 63-bit code above a positive minimum would overflow int64.
  if (agg_width == 63) agg_min = std::min<std::int64_t>(agg_min, 0);
  out.agg_values.resize(out.num_rows);
  for (auto& v : out.agg_values) {
    v = agg_min + static_cast<std::int64_t>(
                      rng.UniformInt(0, (std::uint64_t{1} << agg_width) - 1));
  }
  const bool agg_nullable = rng.Bernoulli(0.3);
  if (agg_nullable) {
    out.agg_valid.resize(out.num_rows);
    for (std::size_t i = 0; i < out.num_rows; ++i) {
      out.agg_valid[i] = !rng.Bernoulli(0.1);
    }
  }

  const ColumnSpec group_spec{.layout = Layout::kVbp, .dictionary = true};
  if (group_nullable) {
    ICP_CHECK(out.table
                  .AddNullableColumn("g", out.group_values, out.group_valid,
                                     group_spec)
                  .ok());
  } else {
    ICP_CHECK(out.table.AddColumn("g", out.group_values, group_spec).ok());
  }
  const Layout kLayouts[] = {Layout::kNaive, Layout::kPadded, Layout::kVbp,
                             Layout::kHbp};
  for (std::size_t li = 0; li < 4; ++li) {
    const ColumnSpec spec{.layout = kLayouts[li]};
    if (agg_nullable) {
      ICP_CHECK(out.table
                    .AddNullableColumn(kLayoutColumns[li], out.agg_values,
                                       out.agg_valid, spec)
                    .ok());
    } else {
      ICP_CHECK(
          out.table.AddColumn(kLayoutColumns[li], out.agg_values, spec).ok());
    }
  }
  return out;
}

struct RandomGroupQuery {
  AggKind agg = AggKind::kCount;
  bool has_filter = false;
  CompareOp op = CompareOp::kEq;
  std::int64_t c1 = 0;
  std::int64_t c2 = 0;
  std::string description;
};

RandomGroupQuery MakeRandomGroupQuery(Random& rng) {
  static const AggKind kAggs[] = {AggKind::kCount, AggKind::kSum,
                                  AggKind::kAvg, AggKind::kMin,
                                  AggKind::kMax};
  static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                   CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe,
                                   CompareOp::kBetween};
  RandomGroupQuery out;
  out.agg = kAggs[rng.UniformInt(0, 4)];
  std::ostringstream desc;
  desc << "agg=" << static_cast<int>(out.agg);
  if (rng.Bernoulli(0.25)) {
    desc << " filter=none";
  } else {
    out.has_filter = true;
    out.op = kOps[rng.UniformInt(0, 6)];
    out.c1 = static_cast<std::int64_t>(rng.UniformInt(0, 8000)) - 2500;
    out.c2 = out.c1 + static_cast<std::int64_t>(rng.UniformInt(0, 5000));
    desc << " filter=op" << static_cast<int>(out.op) << "(" << out.c1 << ","
         << out.c2 << ")";
  }
  out.description = desc.str();
  return out;
}

Query BuildQuery(const RandomGroupQuery& rq, const std::string& column) {
  Query q;
  q.agg = rq.agg;
  q.agg_column = column;
  if (rq.has_filter) {
    q.filter = FilterExpr::Compare(column, rq.op, rq.c1, rq.c2);
  }
  return q;
}

// Scalar filter semantics: NULL never passes a predicate; no filter means
// every row (NULL agg values included) passes.
bool RowPassesFilter(const GroupedTable& t, const RandomGroupQuery& rq,
                     std::size_t i) {
  if (!rq.has_filter) return true;
  if (!t.agg_valid.empty() && !t.agg_valid[i]) return false;
  const std::int64_t v = t.agg_values[i];
  switch (rq.op) {
    case CompareOp::kEq:
      return v == rq.c1;
    case CompareOp::kNe:
      return v != rq.c1;
    case CompareOp::kLt:
      return v < rq.c1;
    case CompareOp::kLe:
      return v <= rq.c1;
    case CompareOp::kGt:
      return v > rq.c1;
    case CompareOp::kGe:
      return v >= rq.c1;
    case CompareOp::kBetween:
      return v >= rq.c1 && v <= rq.c2;
  }
  return false;
}

struct OracleGroup {
  std::uint64_t rows = 0;   // group presence (incl. all-NULL-agg groups)
  std::uint64_t count = 0;  // non-NULL agg rows
  __int128 sum = 0;  // 63-bit values overflow an int64 sum
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
};

// Per-group scalar aggregation over the raw vectors; groups come back in
// ascending group-value order (what the sorted dictionary guarantees).
std::map<std::int64_t, OracleGroup> OracleGroups(const GroupedTable& t,
                                                 const RandomGroupQuery& rq) {
  std::map<std::int64_t, OracleGroup> groups;
  for (std::size_t i = 0; i < t.num_rows; ++i) {
    if (!t.group_valid.empty() && !t.group_valid[i]) continue;
    if (!RowPassesFilter(t, rq, i)) continue;
    OracleGroup& g = groups[t.group_values[i]];
    g.rows += 1;
    if (!t.agg_valid.empty() && !t.agg_valid[i]) continue;
    g.count += 1;
    g.sum += t.agg_values[i];
    g.min = std::min(g.min, t.agg_values[i]);
    g.max = std::max(g.max, t.agg_values[i]);
  }
  return groups;
}

// Checks one engine result list against the oracle. The engine's SUM/AVG
// doubles are recomputed from the oracle's exact integers with the same
// formula (min_value * count + code_sum), so the comparison is
// bit-for-bit, not approximate.
void ExpectMatchesOracle(
    const std::vector<std::pair<std::int64_t, QueryResult>>& got,
    const std::map<std::int64_t, OracleGroup>& want, AggKind agg,
    std::int64_t agg_min_value, const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  auto it = want.begin();
  for (std::size_t gi = 0; gi < got.size(); ++gi, ++it) {
    const std::int64_t group_value = got[gi].first;
    const QueryResult& r = got[gi].second;
    std::ostringstream gc;
    gc << context << " group#" << gi << "=" << group_value;
    ASSERT_EQ(group_value, it->first) << gc.str();
    const OracleGroup& o = it->second;
    EXPECT_EQ(r.count, o.count) << gc.str();
    switch (agg) {
      case AggKind::kCount:
        EXPECT_EQ(r.value, static_cast<double>(o.count)) << gc.str();
        break;
      case AggKind::kSum: {
        const UInt128 want_code_sum = static_cast<UInt128>(
            o.sum - static_cast<__int128>(agg_min_value) *
                        static_cast<__int128>(o.count));
        EXPECT_EQ(r.code_sum, want_code_sum) << gc.str();
        const double want_value =
            static_cast<double>(agg_min_value) *
                static_cast<double>(o.count) +
            UInt128ToDouble(want_code_sum);
        EXPECT_EQ(r.value, want_value) << gc.str();
        break;
      }
      case AggKind::kAvg: {
        const UInt128 want_code_sum = static_cast<UInt128>(
            o.sum - static_cast<__int128>(agg_min_value) *
                        static_cast<__int128>(o.count));
        EXPECT_EQ(r.code_sum, want_code_sum) << gc.str();
        if (o.count > 0) {
          const double want_value =
              static_cast<double>(agg_min_value) +
              UInt128ToDouble(want_code_sum) / static_cast<double>(o.count);
          EXPECT_EQ(r.value, want_value) << gc.str();
        } else {
          EXPECT_EQ(r.value, 0.0) << gc.str();
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        if (o.count > 0) {
          ASSERT_TRUE(r.decoded_value.has_value()) << gc.str();
          EXPECT_EQ(*r.decoded_value,
                    agg == AggKind::kMin ? o.min : o.max)
              << gc.str();
        } else {
          EXPECT_FALSE(r.decoded_value.has_value()) << gc.str();
        }
        break;
      }
      default:
        FAIL() << gc.str() << ": unexpected aggregate";
    }
  }
}

void ExpectSameGroups(
    const std::vector<std::pair<std::int64_t, QueryResult>>& got,
    const std::vector<std::pair<std::int64_t, QueryResult>>& want,
    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::ostringstream gc;
    gc << context << " group#" << i;
    EXPECT_EQ(got[i].first, want[i].first) << gc.str();
    const QueryResult& g = got[i].second;
    const QueryResult& w = want[i].second;
    EXPECT_EQ(g.count, w.count) << gc.str();
    EXPECT_EQ(g.code_sum, w.code_sum) << gc.str();
    EXPECT_EQ(g.decoded_value.has_value(), w.decoded_value.has_value())
        << gc.str();
    if (g.decoded_value.has_value() && w.decoded_value.has_value()) {
      EXPECT_EQ(*g.decoded_value, *w.decoded_value) << gc.str();
    }
    EXPECT_EQ(g.value, w.value) << gc.str();
  }
}

// The range encoder's min_value: the domain is restricted to non-NULL
// positions (see Table::AddNullableColumn).
std::int64_t AggMinValue(const GroupedTable& t) {
  std::int64_t m = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < t.num_rows; ++i) {
    if (!t.agg_valid.empty() && !t.agg_valid[i]) continue;
    m = std::min(m, t.agg_values[i]);
  }
  return m;
}

std::uint64_t BaseSeed() {
  if (const char* env = std::getenv("ICP_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260805;
}

// Distinct tiers this host can genuinely run (a clamped tier would report
// phantom coverage; see differential_test.cc).
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

// Runs `rq` on `t` through both strategies on every tier in `tiers` at
// each of `thread_counts`, on two agg layouts rotated with *case_index so
// every (table, layout) pair appears across a sweep without multiplying
// the full cross product into the runtime budget. Each result is checked
// against the oracle and the strategies against each other. The
// single-pass runs' group-record sizes are added to *record_bytes when it
// is set.
void CheckBothStrategies(const GroupedTable& t, const RandomGroupQuery& rq,
                         const std::vector<kern::Tier>& tiers,
                         std::initializer_list<int> thread_counts,
                         const std::string& label, int* case_index,
                         std::set<std::uint64_t>* record_bytes) {
  const auto oracle = OracleGroups(t, rq);
  const std::int64_t agg_column_min = AggMinValue(t);
  for (const kern::Tier tier : tiers) {
    kern::ForceTier(tier);
    for (const int threads : thread_counts) {
      for (int li = 0; li < 2; ++li) {
        const char* column = kLayoutColumns[(*case_index + li) % 4];
        const Query q = BuildQuery(rq, column);

        std::vector<std::pair<std::int64_t, QueryResult>> per_strategy[2];
        const std::uint64_t kThresholds[2] = {
            std::numeric_limits<std::uint64_t>::max(), 1};  // naive, 1-pass
        for (int si = 0; si < 2; ++si) {
          obs::QueryStats stats;
          ExecOptions options;
          options.threads = threads;
          options.groupby_threshold = kThresholds[si];
          options.stats = &stats;
          Engine engine(options);
          auto result_or = engine.ExecuteGroupBy(t.table, q, "g");
          std::ostringstream context;
          context << label << " query{" << rq.description
                  << "} layout=" << column
                  << " tier=" << kern::TierName(tier)
                  << " threads=" << threads
                  << " strategy=" << (si == 0 ? "naive" : "single-pass")
                  << " (replay with ICP_DIFF_SEED=" << BaseSeed() << ")";
          ASSERT_TRUE(result_or.ok())
              << context.str() << ": " << result_or.status().ToString();
          ExpectMatchesOracle(*result_or, oracle, rq.agg, agg_column_min,
                              context.str());
          if (record_bytes != nullptr && si == 1 &&
              stats.groupby_record_bytes != 0) {
            record_bytes->insert(stats.groupby_record_bytes);
          }
          per_strategy[si] = *std::move(result_or);
        }
        std::ostringstream context;
        context << label << " query{" << rq.description
                << "} layout=" << column
                << " tier=" << kern::TierName(tier)
                << " threads=" << threads << " naive-vs-single-pass"
                << " (replay with ICP_DIFF_SEED=" << BaseSeed() << ")";
        ExpectSameGroups(per_strategy[1], per_strategy[0], context.str());
      }
      ++*case_index;
    }
    kern::ForceTier(std::nullopt);
  }
}

std::string TableLabel(std::uint64_t seed, int log2_card) {
  return "seed=" + std::to_string(seed) + " card=2^" +
         std::to_string(log2_card);
}

TEST(GroupByDifferentialTest, StrategiesAgreeWithScalarOracle) {
  // Cardinality sweep 2^0..2^16; the small end stresses the naive
  // strategy and direct tables, the large end the open-addressed tables
  // and radix spill (with ~6000 rows a 2^16 dictionary leaves most codes
  // unpopulated, which is exactly the sparse high-cardinality shape).
  const int kLog2Cards[] = {0, 1, 2, 4, 6, 8, 10, 12, 14, 16};
  const std::vector<kern::Tier> tiers = CoveredTiers();
  const std::uint64_t base_seed = BaseSeed();

  int case_index = 0;
  for (const int log2_card : kLog2Cards) {
    const std::uint64_t seed =
        base_seed + static_cast<std::uint64_t>(1000 + log2_card);
    const GroupedTable t = MakeGroupedTable(seed, log2_card);
    Random qrng(seed ^ 0x9E3779B97F4A7C15ULL);
    for (int qi = 0; qi < 2; ++qi) {
      ASSERT_NO_FATAL_FAILURE(CheckBothStrategies(
          t, MakeRandomGroupQuery(qrng), tiers, {1, 4, 8},
          TableLabel(seed, log2_card), &case_index, nullptr));
    }
  }
}

// Agg codes of 50..63 bits. Code-domain sums pass 64 bits once agg_bits +
// BitsFor(passing rows) > 64, so SUM/AVG must keep the 48-byte record and
// its 128-bit sum there; below that, and for COUNT/MIN/MAX, the 16-byte
// record serves wherever no passing agg value is NULL. Every aggregate
// runs unfiltered (every row passes, so the wider tables overflow 64-bit
// sums), plus one random query per table.
TEST(GroupByDifferentialTest, WideAggCodesMatchScalarOracle) {
  const int kLog2Cards[] = {1, 4, 8, 12};
  const int kAggWidths[][2] = {{50, 53}, {54, 57}, {58, 61}, {62, 63}};
  static const AggKind kAggs[] = {AggKind::kCount, AggKind::kSum,
                                  AggKind::kAvg, AggKind::kMin,
                                  AggKind::kMax};
  const std::vector<kern::Tier> tiers = CoveredTiers();
  const std::uint64_t base_seed = BaseSeed();

  int case_index = 0;
  std::set<std::uint64_t> record_bytes;
  for (std::size_t i = 0; i < std::size(kLog2Cards); ++i) {
    const std::uint64_t seed = base_seed + 3000 + i;
    const GroupedTable t = MakeGroupedTable(
        seed, kLog2Cards[i], kAggWidths[i][0], kAggWidths[i][1]);
    Random qrng(seed ^ 0x9E3779B97F4A7C15ULL);
    std::vector<RandomGroupQuery> queries = {MakeRandomGroupQuery(qrng)};
    for (const AggKind agg : kAggs) {
      RandomGroupQuery& q = queries.emplace_back();
      q.agg = agg;
      q.description =
          "agg=" + std::to_string(static_cast<int>(agg)) + " filter=none";
    }
    for (const RandomGroupQuery& rq : queries) {
      ASSERT_NO_FATAL_FAILURE(CheckBothStrategies(
          t, rq, tiers, {1, 4}, TableLabel(seed, kLog2Cards[i]), &case_index,
          &record_bytes));
    }
  }
  EXPECT_EQ(record_bytes.count(16), 1u) << "no run used the 16-byte record";
  EXPECT_EQ(record_bytes.count(48), 1u) << "no run used the 48-byte record";
}

// Tiny local-table budgets force every row through the radix spill; the
// results must be identical to the spacious default.
TEST(GroupByDifferentialTest, SpillPathMatchesDefaultBudget) {
  const std::uint64_t seed = BaseSeed() + 77;
  const GroupedTable t = MakeGroupedTable(seed, 12);
  Random qrng(seed);
  for (int qi = 0; qi < 3; ++qi) {
    const RandomGroupQuery rq = MakeRandomGroupQuery(qrng);
    const auto oracle = OracleGroups(t, rq);
    const Query q = BuildQuery(rq, "v_vbp");
    const std::int64_t agg_column_min = AggMinValue(t);
    for (const std::size_t budget : {std::size_t{1}, std::size_t{256},
                                     std::size_t{1} << 20}) {
      ExecOptions options;
      options.threads = 4;
      options.groupby_threshold = 1;
      options.groupby_local_bytes = budget;
      Engine engine(options);
      auto result_or = engine.ExecuteGroupBy(t.table, q, "g");
      std::ostringstream context;
      context << "seed=" << seed << " query{" << rq.description
              << "} budget=" << budget << " (replay with ICP_DIFF_SEED="
              << BaseSeed() << ")";
      ASSERT_TRUE(result_or.ok())
          << context.str() << ": " << result_or.status().ToString();
      ExpectMatchesOracle(*result_or, oracle, rq.agg, agg_column_min,
                          context.str());
    }
  }
}

}  // namespace
}  // namespace icp
