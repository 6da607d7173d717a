// Properties and fault injection for the single-pass GROUP BY operator
// (src/groupby/) and its engine wiring:
//   * tiny local-table budgets degrade to pure spill (every row spills)
//     without changing results;
//   * cancellation / deadlines drain both parallel regions cleanly;
//   * armed groupby/{spill,merge} failpoints surface Status Internal and
//     leave the engine reusable;
//   * the naive strategy's scan-work counters grow O(table + groups), not
//     O(table x groups) (the hoisted-invariant bugfix);
//   * governed runs meter the local tables against the admission scratch
//     budget;
//   * EXPLAIN ANALYZE carries the groupby: line.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/table.h"
#include "groupby/groupby.h"
#include "obs/query_stats.h"
#include "parallel/executor.h"
#include "parallel/thread_pool.h"
#include "sched/admission.h"
#include "sched/scheduler.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace icp {
namespace {

// A deterministic dictionary table: group values 10*i over `cardinality`
// codes, agg values v in [0, 100).
struct Fixture {
  Table table;
  std::vector<std::int64_t> group_values;
  std::vector<std::int64_t> agg_values;
  std::size_t num_rows = 0;
};

Fixture MakeFixture(std::size_t num_rows, std::uint64_t cardinality,
                    std::uint64_t seed = 42) {
  Random rng(seed);
  Fixture f;
  f.num_rows = num_rows;
  f.group_values.resize(num_rows);
  f.agg_values.resize(num_rows);
  for (std::size_t i = 0; i < num_rows; ++i) {
    f.group_values[i] =
        10 * static_cast<std::int64_t>(rng.UniformInt(0, cardinality - 1));
    f.agg_values[i] = static_cast<std::int64_t>(rng.UniformInt(0, 99));
  }
  ICP_CHECK(f.table
                .AddColumn("g", f.group_values,
                           {.layout = Layout::kVbp, .dictionary = true})
                .ok());
  ICP_CHECK(f.table.AddColumn("v", f.agg_values, {.layout = Layout::kVbp})
                .ok());
  return f;
}

Query SumQuery() {
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "v";
  return q;
}

// -- Spill / overflow properties -------------------------------------------

TEST(GroupBySpillTest, TinyBudgetSpillsEveryRowAndMatchesSpaciousRun) {
  const Fixture f = MakeFixture(20000, 512);

  obs::QueryStats spacious_stats;
  ExecOptions spacious;
  spacious.threads = 4;
  spacious.groupby_threshold = 1;
  spacious.stats = &spacious_stats;
  Engine spacious_engine(spacious);
  auto want_or = spacious_engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  ASSERT_TRUE(want_or.ok()) << want_or.status().ToString();
  EXPECT_STREQ(spacious_stats.groupby_strategy, "single-pass");
  EXPECT_EQ(spacious_stats.groupby_local_hits, f.num_rows);
  EXPECT_EQ(spacious_stats.groupby_spilled_rows, 0u);

  obs::QueryStats tiny_stats;
  ExecOptions tiny = spacious;
  tiny.groupby_local_bytes = 1;  // not even one hash entry fits
  tiny.stats = &tiny_stats;
  Engine tiny_engine(tiny);
  auto got_or = tiny_engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
  EXPECT_EQ(tiny_stats.groupby_local_hits, 0u);
  EXPECT_EQ(tiny_stats.groupby_spilled_rows, f.num_rows);
  EXPECT_GT(tiny_stats.groupby_partitions, 0u);

  ASSERT_EQ(got_or->size(), want_or->size());
  for (std::size_t i = 0; i < got_or->size(); ++i) {
    EXPECT_EQ((*got_or)[i].first, (*want_or)[i].first);
    EXPECT_EQ((*got_or)[i].second.count, (*want_or)[i].second.count);
    EXPECT_EQ((*got_or)[i].second.code_sum, (*want_or)[i].second.code_sum);
    EXPECT_EQ((*got_or)[i].second.value, (*want_or)[i].second.value);
  }
}

TEST(GroupBySpillTest, LocalTableModeFollowsBudget) {
  const Fixture f = MakeFixture(8000, 4096);
  Query q = SumQuery();

  // Dictionary (4096 x 16-byte records) far exceeds 4 KiB: open-addressed.
  obs::QueryStats hash_stats;
  ExecOptions hash_opts;
  hash_opts.groupby_threshold = 1;
  hash_opts.groupby_local_bytes = std::size_t{4} << 10;
  hash_opts.stats = &hash_stats;
  Engine hash_engine(hash_opts);
  ASSERT_TRUE(hash_engine.ExecuteGroupBy(f.table, q, "g").ok());
  EXPECT_STREQ(hash_stats.agg_path, "groupby-hash");

  // The default 1 MiB budget direct-indexes a 4096-code dictionary.
  obs::QueryStats direct_stats;
  ExecOptions direct_opts;
  direct_opts.groupby_threshold = 1;
  direct_opts.stats = &direct_stats;
  Engine direct_engine(direct_opts);
  ASSERT_TRUE(direct_engine.ExecuteGroupBy(f.table, q, "g").ok());
  EXPECT_STREQ(direct_stats.agg_path, "groupby-direct");
  EXPECT_EQ(direct_stats.groupby_record_bytes, 16u);

  // A SUM over a non-nullable agg column folds into 16-byte records, so a
  // 2^16-code dictionary is exactly the default 1 MiB and goes direct: no
  // row probes a full hash table, none spills.
  constexpr std::uint64_t kCodes = std::uint64_t{1} << 16;
  const std::size_t num_rows = 2 * kCodes;
  Random rng(7);
  std::vector<std::int64_t> groups(num_rows);
  std::vector<std::int64_t> values(num_rows);
  std::vector<std::uint64_t> want_sums(kCodes, 0);
  for (std::size_t i = 0; i < num_rows; ++i) {
    groups[i] = 10 * static_cast<std::int64_t>(i % kCodes);
    values[i] = static_cast<std::int64_t>(rng.UniformInt(0, 99));
    want_sums[i % kCodes] += static_cast<std::uint64_t>(values[i]);
  }
  Table table;
  ASSERT_TRUE(table
                  .AddColumn("g", groups,
                             {.layout = Layout::kVbp, .dictionary = true})
                  .ok());
  ASSERT_TRUE(table.AddColumn("v", values, {.layout = Layout::kVbp}).ok());

  obs::QueryStats big_stats;
  ExecOptions big_opts;
  big_opts.threads = 4;
  big_opts.stats = &big_stats;
  Engine big_engine(big_opts);
  auto got_or = big_engine.ExecuteGroupBy(table, q, "g");
  ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
  EXPECT_STREQ(big_stats.agg_path, "groupby-direct");
  EXPECT_EQ(big_stats.groupby_record_bytes, 16u);
  EXPECT_EQ(big_stats.groupby_spilled_rows, 0u);
  EXPECT_EQ(big_stats.groupby_local_hits, num_rows);

  ASSERT_EQ(got_or->size(), kCodes);
  const std::int64_t min_value =
      *std::min_element(values.begin(), values.end());
  for (std::uint64_t c = 0; c < kCodes; ++c) {
    const auto& [group, r] = (*got_or)[c];
    ASSERT_EQ(group, 10 * static_cast<std::int64_t>(c));
    EXPECT_EQ(r.count, 2u);
    EXPECT_EQ(r.code_sum,
              want_sums[c] - 2 * static_cast<std::uint64_t>(min_value));
  }
}

// -- Stage accounting ------------------------------------------------------

// Building the result of a 2^16-group statement is counted in the
// aggregate stage, so the stages cover nearly all of its cycles.
TEST(GroupByStageTest, StagesCoverA64KGroupStatement) {
  constexpr std::uint64_t kCodes = std::uint64_t{1} << 16;
  const Fixture f = MakeFixture(4 * kCodes, kCodes);
  obs::QueryStats stats;
  ExecOptions opts;
  opts.threads = 4;
  opts.stats = &stats;
  Engine engine(opts);
  // Best of a few runs: a statement the host deschedules between two
  // stages reads as unattributed time the code does not spend.
  double covered = 0;
  for (int run = 0; run < 5 && covered < 0.95; ++run) {
    auto result = engine.ExecuteGroupBy(f.table, SumQuery(), "g");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(result->size(), kCodes / 2);
    ASSERT_GT(stats.total_cycles, 0u);
    covered = std::max(covered, static_cast<double>(stats.StageCyclesSum()) /
                                    static_cast<double>(stats.total_cycles));
  }
  EXPECT_GE(covered, 0.95);
}

// -- Cancellation / deadline drains ----------------------------------------

TEST(GroupByCancelTest, PreCancelledTokenDrainsCleanly) {
  const Fixture f = MakeFixture(50000, 1024);
  ThreadPool pool(4);
  StaticPoolExecutor ex(pool);

  const FilterBitVector filter = [&] {
    FilterBitVector v(f.num_rows, kWordBits);
    v.SetAll();
    return v;
  }();
  const auto& group = **f.table.GetColumn("g");
  const auto& agg = **f.table.GetColumn("v");

  groupby::Input in;
  in.group_codes = groupby::CodeSource::Of(group);
  in.num_codes = group.encoder().num_codes();
  in.agg_codes = groupby::CodeSource::Of(agg);
  in.agg_bits = agg.bit_width();
  in.filter = &filter;
  in.num_rows = f.num_rows;

  CancellationToken token = CancellationToken::Create();
  token.RequestCancel();
  const CancelContext cancel(token, std::nullopt);
  groupby::Stats stats;
  // Drops the groups: only the drained status matters here.
  struct DiscardSink final : groupby::GroupSink {
    void Resize(std::size_t) override {}
    void Fill(std::size_t, const groupby::Group*, std::size_t) override {}
  } sink;
  const Status status = groupby::Execute(
      in, groupby::Options{.kind = AggKind::kSum}, ex, &cancel, &stats, sink);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
}

TEST(GroupByCancelTest, ShortDeadlinesNeverCorruptTheEngine) {
  const Fixture f = MakeFixture(60000, 4096);
  auto baseline_or = [&] {
    ExecOptions options;
    options.threads = 4;
    options.groupby_threshold = 1;
    Engine engine(options);
    return engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  }();
  ASSERT_TRUE(baseline_or.ok());

  for (const auto budget :
       {std::chrono::nanoseconds(1), std::chrono::nanoseconds(20'000),
        std::chrono::nanoseconds(500'000)}) {
    ExecOptions options;
    options.threads = 4;
    options.groupby_threshold = 1;
    options.deadline = budget;
    Engine engine(options);
    auto result_or = engine.ExecuteGroupBy(f.table, SumQuery(), "g");
    if (!result_or.ok()) {
      EXPECT_EQ(result_or.status().code(), StatusCode::kDeadlineExceeded)
          << result_or.status().ToString();
    } else {
      ASSERT_EQ(result_or->size(), baseline_or->size());
    }
    // Whatever happened, the engine must still run a clean query.
    ExecOptions clean = options;
    clean.deadline.reset();
    Engine clean_engine(clean);
    auto again = clean_engine.ExecuteGroupBy(f.table, SumQuery(), "g");
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->size(), baseline_or->size());
  }
}

// -- Failpoints ------------------------------------------------------------

class GroupByFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::Armed()) {
      GTEST_SKIP() << "built without ICP_FAILPOINTS";
    }
    fail::DisableAll();
  }
  void TearDown() override { fail::DisableAll(); }
};

TEST_F(GroupByFailpointTest, SpillFailureSurfacesInternal) {
  const Fixture f = MakeFixture(5000, 256);
  ExecOptions options;
  options.threads = 4;
  options.groupby_threshold = 1;
  options.groupby_local_bytes = 1;  // pure spill: the failpoint is on-path
  Engine engine(options);

  fail::EnableOneShot("groupby/spill");
  auto result_or = engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  ASSERT_FALSE(result_or.ok());
  EXPECT_EQ(result_or.status().code(), StatusCode::kInternal);
  fail::DisableAll();

  // No leaked state: the same engine runs the query cleanly afterwards.
  auto again = engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
}

TEST_F(GroupByFailpointTest, MergeFailureSurfacesInternal) {
  const Fixture f = MakeFixture(5000, 256);
  ExecOptions options;
  options.threads = 4;
  options.groupby_threshold = 1;
  Engine engine(options);

  fail::EnableOneShot("groupby/merge");
  auto result_or = engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  ASSERT_FALSE(result_or.ok());
  EXPECT_EQ(result_or.status().code(), StatusCode::kInternal);
  fail::DisableAll();

  auto again = engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
}

// -- The hoisted-invariant bugfix ------------------------------------------

// The naive strategy used to run one full bit-parallel scan per group
// code, so words_scanned grew O(table x groups). After the chunked-scatter
// fix the scans cover only the base filter: identical work for 4 and 64
// groups over the same table.
TEST(NaiveGroupByTest, ScanWorkIsInvariantInGroupCount) {
  const std::size_t kRows = 30000;
  auto run = [&](std::uint64_t cardinality) {
    const Fixture f = MakeFixture(kRows, cardinality);
    Query q = SumQuery();
    q.filter = FilterExpr::Compare("v", CompareOp::kGe, 10);
    obs::QueryStats stats;
    ExecOptions options;
    options.groupby_threshold = std::numeric_limits<std::uint64_t>::max();
    options.stats = &stats;
    Engine engine(options);
    auto result_or = engine.ExecuteGroupBy(f.table, q, "g");
    ICP_CHECK(result_or.ok());
    ICP_CHECK(result_or->size() == cardinality);
    return stats;
  };
  const obs::QueryStats small = run(4);
  const obs::QueryStats large = run(64);
  EXPECT_STREQ(small.groupby_strategy, "naive");
  EXPECT_GT(small.words_scanned, 0u);
  // One base-filter scan each — bit-for-bit identical scan work, where the
  // per-group rescan design gave the 64-group run ~16x the words.
  EXPECT_EQ(large.words_scanned, small.words_scanned);
  EXPECT_EQ(large.segments_scanned, small.segments_scanned);
}

// -- Governed execution ----------------------------------------------------

TEST(GroupByGovernedTest, ScratchBudgetExhaustionSurfaces) {
  const Fixture f = MakeFixture(20000, 1 << 14);
  sched::MorselScheduler scheduler(3);
  sched::AdmissionOptions admission;
  admission.max_concurrent = 2;
  admission.max_scratch_bytes = 16 << 10;  // far below the local tables
  sched::QueryGovernor governor(scheduler, admission);

  ExecOptions options;
  options.threads = 4;
  options.groupby_threshold = 1;
  options.governor = &governor;
  Engine engine(options);
  auto result_or = engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  ASSERT_FALSE(result_or.ok());
  EXPECT_EQ(result_or.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.active(), 0);
  EXPECT_EQ(governor.queued(), 0);
}

TEST(GroupByGovernedTest, GovernedRunMatchesUngoverned) {
  const Fixture f = MakeFixture(20000, 1024);
  auto ungoverned_or = [&] {
    ExecOptions options;
    options.threads = 4;
    options.groupby_threshold = 1;
    Engine engine(options);
    return engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  }();
  ASSERT_TRUE(ungoverned_or.ok());

  sched::MorselScheduler scheduler(3);
  sched::QueryGovernor governor(scheduler, sched::AdmissionOptions{});
  obs::QueryStats stats;
  ExecOptions options;
  options.threads = 4;
  options.groupby_threshold = 1;
  options.governor = &governor;
  options.stats = &stats;
  Engine engine(options);
  auto governed_or = engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  ASSERT_TRUE(governed_or.ok()) << governed_or.status().ToString();
  EXPECT_GT(stats.granted_parallelism, 0);

  ASSERT_EQ(governed_or->size(), ungoverned_or->size());
  for (std::size_t i = 0; i < governed_or->size(); ++i) {
    EXPECT_EQ((*governed_or)[i].first, (*ungoverned_or)[i].first);
    EXPECT_EQ((*governed_or)[i].second.code_sum,
              (*ungoverned_or)[i].second.code_sum);
    EXPECT_EQ((*governed_or)[i].second.value,
              (*ungoverned_or)[i].second.value);
  }
}

// -- EXPLAIN ANALYZE -------------------------------------------------------

TEST(GroupByExplainTest, GroupByLineRendersPerStrategy) {
  const Fixture f = MakeFixture(10000, 512);

  obs::QueryStats stats;
  ExecOptions options;
  options.groupby_threshold = 1;
  options.stats = &stats;
  Engine engine(options);
  auto result_or = engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  ASSERT_TRUE(result_or.ok());
  ASSERT_FALSE(result_or->empty());
  const std::string report =
      FormatExplainAnalyze(stats, (*result_or)[0].second);
  EXPECT_NE(report.find("groupby: strategy=single-pass"), std::string::npos)
      << report;
  EXPECT_NE(report.find("local_hits="), std::string::npos) << report;

  obs::QueryStats naive_stats;
  ExecOptions naive_options;
  naive_options.groupby_threshold =
      std::numeric_limits<std::uint64_t>::max();
  naive_options.stats = &naive_stats;
  Engine naive_engine(naive_options);
  auto naive_or = naive_engine.ExecuteGroupBy(f.table, SumQuery(), "g");
  ASSERT_TRUE(naive_or.ok());
  const std::string naive_report =
      FormatExplainAnalyze(naive_stats, (*naive_or)[0].second);
  EXPECT_NE(naive_report.find("groupby: strategy=naive"), std::string::npos)
      << naive_report;

  // Plain (non-grouped) queries carry no groupby line.
  obs::QueryStats plain_stats;
  ExecOptions plain_options;
  plain_options.stats = &plain_stats;
  Engine plain_engine(plain_options);
  auto plain_or = plain_engine.Execute(f.table, SumQuery());
  ASSERT_TRUE(plain_or.ok());
  EXPECT_EQ(FormatExplainAnalyze(plain_stats, *plain_or).find("groupby:"),
            std::string::npos);
}

// MEDIAN needs the per-group filter and must stay on the naive strategy
// even when the threshold would pick single-pass.
TEST(GroupByStrategyTest, MedianAlwaysRunsNaive) {
  const Fixture f = MakeFixture(5000, 256);
  Query q;
  q.agg = AggKind::kMedian;
  q.agg_column = "v";
  obs::QueryStats stats;
  ExecOptions options;
  options.groupby_threshold = 1;
  options.stats = &stats;
  Engine engine(options);
  auto result_or = engine.ExecuteGroupBy(f.table, q, "g");
  ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
  EXPECT_STREQ(stats.groupby_strategy, "naive");
  EXPECT_EQ(stats.groupby_groups, result_or->size());
}

}  // namespace
}  // namespace icp
