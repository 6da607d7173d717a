// EXPLAIN ANALYZE and per-query stats: checks that Execute fills the
// QueryStats sink hung off ExecOptions::stats (work counters, dispatch
// info, a stage-cycle breakdown consistent with the end-to-end total),
// that ExplainAnalyze renders the report, and that ParseStatement
// recognizes the EXPLAIN ANALYZE prefix.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/expression.h"
#include "engine/query_parser.h"
#include "engine/table.h"
#include "obs/query_stats.h"
#include "obs/trace.h"
#include "sched/admission.h"
#include "sched/scheduler.h"
#include "util/cancellation.h"
#include "util/random.h"

namespace icp {
namespace {

// Large enough that scan + aggregate dominate the per-query overhead, so
// the stage-sum consistency bound below is stable.
constexpr std::size_t kRows = 1u << 18;

struct Fixture {
  Table table;
  std::vector<std::int64_t> fare;
  std::vector<std::int64_t> distance;

  explicit Fixture(Layout layout) {
    Random rng(20260806);
    fare.resize(kRows);
    distance.resize(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      fare[i] = static_cast<std::int64_t>(rng.UniformInt(0, 5000));
      distance[i] = static_cast<std::int64_t>(rng.UniformInt(0, 10000));
    }
    ICP_CHECK(table.AddColumn("fare", fare, {.layout = layout}).ok());
    ICP_CHECK(table.AddColumn("distance", distance, {.layout = layout}).ok());
  }
};

Query SumOverFilter() {
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "fare";
  q.filter = FilterExpr::Compare("distance", CompareOp::kGt, 5000);
  return q;
}

class ExplainLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(ExplainLayoutTest, ExecuteFillsStatsSink) {
  Fixture fx(GetParam());
  obs::QueryStats stats;
  // Pre-poison: Execute must reset the sink at entry.
  stats.words_scanned = 999999;
  stats.kernel_tier = "stale";
  Engine engine(ExecOptions{.stats = &stats});

  auto result = engine.Execute(fx.table, SumOverFilter());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::uint64_t expected_passing = 0;
  for (std::size_t i = 0; i < kRows; ++i) {
    if (fx.distance[i] > 5000) ++expected_passing;
  }
  EXPECT_EQ(stats.rows_total, kRows);
  EXPECT_EQ(stats.rows_passing, expected_passing);
  EXPECT_GT(stats.words_scanned, 0u);
  EXPECT_GT(stats.segments_scanned, 0u);
  EXPECT_GT(stats.agg_folds, 0u);
  EXPECT_GT(stats.total_cycles, 0u);
  EXPECT_GT(stats.scan_cycles, 0u);
  EXPECT_GT(stats.agg_cycles, 0u);
  EXPECT_EQ(stats.parse_cycles, 0u);  // no SQL text involved
  EXPECT_STRNE(stats.kernel_tier, "");
  EXPECT_STRNE(stats.kernel_tier, "stale");
  EXPECT_STREQ(stats.agg_path, GetParam() == Layout::kVbp ? "vbp" : "hbp");
  EXPECT_STRNE(stats.method, "");
  EXPECT_EQ(stats.threads, 1);
  EXPECT_NEAR(stats.FilterDensity(),
              static_cast<double>(expected_passing) / kRows, 1e-12);
}

TEST_P(ExplainLayoutTest, StageCyclesSumIsConsistentWithTotal) {
  Fixture fx(GetParam());
  obs::QueryStats stats;
  Engine engine(ExecOptions{.stats = &stats});

  // The upper bound (stages never exceed the end-to-end total) is
  // deterministic; the lower bound (the named stages cover >= half the
  // total) is a timing property, so take the best of a few runs to keep
  // loaded CI machines from flaking it.
  bool covered = false;
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto result = engine.Execute(fx.table, SumOverFilter());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(stats.total_cycles, 0u);
    EXPECT_LE(stats.StageCyclesSum(), stats.total_cycles);
    if (2 * stats.StageCyclesSum() >= stats.total_cycles) covered = true;
  }
  EXPECT_TRUE(covered)
      << "named stages cover < 50% of total_cycles: scan="
      << stats.scan_cycles << " combine=" << stats.combine_cycles
      << " agg=" << stats.agg_cycles << " total=" << stats.total_cycles;
}

TEST_P(ExplainLayoutTest, UnfilteredQueryHasDensityOne) {
  Fixture fx(GetParam());
  obs::QueryStats stats;
  Engine engine(ExecOptions{.stats = &stats});
  Query q;
  q.agg = AggKind::kCount;
  q.agg_column = "fare";
  auto result = engine.Execute(fx.table, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->count, kRows);
  EXPECT_EQ(stats.rows_total, kRows);
  EXPECT_EQ(stats.rows_passing, kRows);
  EXPECT_DOUBLE_EQ(stats.FilterDensity(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Layouts, ExplainLayoutTest,
                         ::testing::Values(Layout::kVbp, Layout::kHbp));

TEST(ExplainAnalyzeTest, RendersReportAndFillsSink) {
  Fixture fx(Layout::kVbp);
  obs::QueryStats stats;
  Engine engine(ExecOptions{.stats = &stats});

  auto report = engine.ExplainAnalyze(fx.table, SumOverFilter(), 1234);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  for (const char* needle :
       {"EXPLAIN ANALYZE", "result: SUM", "plan:", "method=", "path=vbp",
        "tier=", "parse", "scan", "combine", "aggregate", "total", "words=",
        "density=", "cancel_checks="}) {
    EXPECT_NE(report->find(needle), std::string::npos)
        << "missing " << needle << " in:\n" << *report;
  }
  // The caller-supplied parse cost is folded into the sink's copy.
  EXPECT_EQ(stats.parse_cycles, 1234u);
  EXPECT_GT(stats.words_scanned, 0u);
  EXPECT_GE(stats.total_cycles, stats.StageCyclesSum());
}

// A governed query that queues at admission spends the wait inside
// total_cycles; the admit stage must account for it, so the named stages
// still cover nearly all of the query's cycles.
TEST(ExplainAnalyzeTest, AdmissionWaitIsANamedStage) {
  Fixture fx(Layout::kVbp);
  sched::MorselScheduler scheduler(2);
  sched::QueryGovernor governor(scheduler,
                                {.max_concurrent = 1, .max_queued = 1});
  // Hold the only admission slot so the query has to queue behind it.
  auto admitted = governor.Admit(CancellationToken(), std::nullopt);
  ASSERT_TRUE(admitted.ok());
  std::unique_ptr<sched::QuerySession> held = std::move(admitted).value();

  obs::QueryStats stats;
  ExecOptions opts;
  opts.stats = &stats;
  opts.governor = &governor;
  Engine engine(opts);
  StatusOr<QueryResult> result = Status::Internal("query did not run");
  std::thread query(
      [&] { result = engine.Execute(fx.table, SumOverFilter()); });
  while (governor.queued() == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  held.reset();  // release the slot: the queued query is granted
  query.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_GT(stats.admit_queued_cycles, 0u);
  EXPECT_LE(stats.StageCyclesSum(), stats.total_cycles);
  EXPECT_GE(static_cast<double>(stats.StageCyclesSum()),
            0.95 * static_cast<double>(stats.total_cycles))
      << "admit=" << stats.admit_queued_cycles
      << " scan=" << stats.scan_cycles << " combine=" << stats.combine_cycles
      << " agg=" << stats.agg_cycles << " total=" << stats.total_cycles;
  const std::string report = FormatExplainAnalyze(stats, *result);
  EXPECT_NE(report.find("  admit "), std::string::npos) << report;
}

TEST(ExplainAnalyzeTest, PropagatesExecutionErrors) {
  Fixture fx(Layout::kVbp);
  Engine engine;
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "no_such_column";
  EXPECT_FALSE(engine.ExplainAnalyze(fx.table, q).ok());
}

#if ICP_OBS
TEST(TraceSpanTest, ExecuteRecordsStageSpans) {
  Fixture fx(Layout::kVbp);
  obs::ClearTrace();
  obs::EnableTracing();
  Engine engine;
  auto r = engine.Execute(fx.table, SumOverFilter());
  obs::DisableTracing();
  ASSERT_TRUE(r.ok());
  // One filtered SUM records at least a scan span and an aggregate span;
  // the parse span only appears via ParseStatement, and combine spans
  // only for composite filters.
  EXPECT_GE(obs::TraceSpanCount(), 2u);
  obs::ClearTrace();
}

TEST(TraceSpanTest, ParsedStatementAddsParseAndCombineSpans) {
  Fixture fx(Layout::kHbp);
  obs::ClearTrace();
  obs::EnableTracing();
  auto stmt = ParseStatement(
      "SELECT SUM(fare) WHERE distance > 5000 AND fare > 100");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  Engine engine;
  auto r = engine.Execute(fx.table, stmt->query);
  obs::DisableTracing();
  ASSERT_TRUE(r.ok());
  // parse + two scan leaves + combine + aggregate.
  EXPECT_GE(obs::TraceSpanCount(), 5u);
  obs::ClearTrace();
}
#endif  // ICP_OBS

TEST(ParseStatementTest, RecognizesExplainAnalyzePrefix) {
  auto stmt = ParseStatement("EXPLAIN ANALYZE SELECT SUM(fare)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->explain_analyze);
  EXPECT_GT(stmt->parse_cycles, 0u);
  EXPECT_EQ(stmt->query.agg, AggKind::kSum);
  EXPECT_EQ(stmt->query.agg_column, "fare");

  stmt = ParseStatement("  explain   analyze select count(x)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->explain_analyze);
  EXPECT_EQ(stmt->query.agg, AggKind::kCount);
}

TEST(ParseStatementTest, PlainStatementsPassThrough) {
  auto stmt = ParseStatement("SELECT MAX(distance) WHERE fare < 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_FALSE(stmt->explain_analyze);
  EXPECT_EQ(stmt->query.agg, AggKind::kMax);
  ASSERT_NE(stmt->query.filter, nullptr);
}

TEST(ParseStatementTest, RejectsMalformedExplain) {
  // EXPLAIN without ANALYZE is not supported (no non-executing planner).
  EXPECT_FALSE(ParseStatement("EXPLAIN SELECT COUNT(x)").ok());
  // EXPLAINANALYZE must not parse as two keywords.
  EXPECT_FALSE(ParseStatement("EXPLAINANALYZE SELECT COUNT(x)").ok());
  // The prefix alone is not a statement.
  EXPECT_FALSE(ParseStatement("EXPLAIN ANALYZE").ok());
}

TEST(ExplainAnalyzeTest, WorksThroughParsedStatement) {
  Fixture fx(Layout::kHbp);
  Engine engine;
  auto stmt =
      ParseStatement("EXPLAIN ANALYZE SELECT AVG(fare) WHERE distance > 9000");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(stmt->explain_analyze);
  auto report =
      engine.ExplainAnalyze(fx.table, stmt->query, stmt->parse_cycles);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("result: AVG"), std::string::npos) << *report;
  EXPECT_NE(report->find("path=hbp"), std::string::npos) << *report;
}

}  // namespace
}  // namespace icp
