// Tests for the process-wide observability layer: counter registry
// semantics, concurrent increment exactness (the TSan build runs this
// suite), the StageTimer clock, the snapshot exporters, and the Chrome
// trace-event writer. The ICP_OBS=0 configuration compiles the stub
// branch at the bottom instead, pinning the compiled-out contract.

#include "obs/obs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/stage_timer.h"
#include "obs/trace.h"

namespace icp {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(StageTimerTest, MeasuresForwardProgress) {
  obs::StageTimer timer;
  // Burn enough work that even a coarse clock ticks.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  const std::uint64_t first = timer.Restart();
  EXPECT_GT(first, 0u);
  // Restart re-bases: an immediate read is much smaller than the burn.
  EXPECT_LT(timer.ElapsedCycles(), first);
  const std::uint64_t measured = obs::StageTimer::Measure([] {
    volatile std::uint64_t s = 0;
    for (int i = 0; i < 100000; ++i) s = s + static_cast<std::uint64_t>(i);
  });
  EXPECT_GT(measured, 0u);
}

#if ICP_OBS

TEST(ObsCounterTest, AddIncrementLoadReset) {
  obs::ResetAllCounters();
  EXPECT_EQ(obs::CounterValue("scan.words_examined"), 0u);
  ICP_OBS_ADD(ScanWordsExamined, 5);
  ICP_OBS_INCREMENT(ScanWordsExamined);
  EXPECT_EQ(obs::ScanWordsExamined().Load(), 6u);
  EXPECT_EQ(obs::CounterValue("scan.words_examined"), 6u);
  EXPECT_EQ(obs::CounterValue("no.such.counter"), 0u);
  obs::ScanWordsExamined().Reset();
  EXPECT_EQ(obs::ScanWordsExamined().Load(), 0u);
  EXPECT_STREQ(obs::ScanWordsExamined().name(), "scan.words_examined");
  EXPECT_NE(obs::ScanWordsExamined().help()[0], '\0');
}

TEST(ObsCounterTest, SnapshotListsWholeCatalogueSorted) {
  const auto snap = obs::SnapshotCounters();
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].first, snap[i].first) << "unsorted/duplicate";
  }
  const char* expected[] = {
      "scan.words_examined",   "scan.segments_processed",
      "scan.segments_early_stopped", "filter.combine_words",
      "filter.rows_scanned",   "filter.rows_passing",
      "agg.segments_folded",   "agg.segments_skipped",
      "agg.compare_early_stops", "agg.blends_skipped",
      "agg.path.vbp",          "agg.path.hbp",
      "agg.path.nbp",          "agg.path.naive",
      "agg.path.padded",       "kern.dispatch.scalar",
      "kern.dispatch.sse",     "kern.dispatch.avx2",
      "kern.dispatch.avx512",  "cancel.checks",
      "failpoint.hits",        "pool.regions",
      "pool.tasks",            "engine.queries",
  };
  EXPECT_GE(snap.size(), std::size(expected));
  for (const char* name : expected) {
    bool found = false;
    for (const auto& [snap_name, value] : snap) {
      if (snap_name == name) found = true;
    }
    EXPECT_TRUE(found) << "catalogue is missing " << name;
  }
}

TEST(ObsCounterTest, ConcurrentAddsAreExact) {
  obs::ResetAllCounters();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ICP_OBS_INCREMENT(PoolTasks);
        if ((i & 1023) == 0) ICP_OBS_ADD(PoolRegions, 2);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(obs::PoolTasks().Load(), kThreads * kPerThread);
  EXPECT_EQ(obs::PoolRegions().Load(),
            static_cast<std::uint64_t>(kThreads) * 2 *
                ((kPerThread + 1023) / 1024));
}

TEST(ObsCounterTest, SnapshotTextAndJson) {
  obs::ResetAllCounters();
  ICP_OBS_ADD(EngineQueries, 3);
  const std::string text = obs::SnapshotText();
  EXPECT_NE(text.find("engine.queries 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("scan.words_examined 0\n"), std::string::npos);

  const std::string json = obs::SnapshotJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"engine.queries\": 3"), std::string::npos) << json;
}

TEST(ObsTraceTest, SpansRecordOnlyWhileEnabled) {
  obs::DisableTracing();
  obs::ClearTrace();
  obs::RecordSpan("obs_test.ignored", 0, 0, 10);
  EXPECT_EQ(obs::TraceSpanCount(), 0u);

  obs::EnableTracing();
  EXPECT_TRUE(obs::TracingEnabled());
  const obs::StageTimer timer;
  obs::RecordSpan("obs_test.manual", 1, timer.start_cycles(), 10);
  { ICP_OBS_TRACE_SPAN("obs_test.scoped", 2); }
  EXPECT_EQ(obs::TraceSpanCount(), 2u);

  obs::DisableTracing();
  obs::RecordSpan("obs_test.after", 0, 0, 10);
  EXPECT_EQ(obs::TraceSpanCount(), 2u);
  obs::ClearTrace();
  EXPECT_EQ(obs::TraceSpanCount(), 0u);
}

TEST(ObsTraceTest, WritesLoadableChromeTrace) {
  obs::ClearTrace();
  obs::EnableTracing();
  {
    volatile std::uint64_t sink = 0;
    ICP_OBS_TRACE_SPAN("obs_test.work", 0);
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
  obs::DisableTracing();
  ASSERT_EQ(obs::TraceSpanCount(), 1u);

  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path));
  const std::string trace = ReadFile(path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"obs_test.work\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  obs::ClearTrace();

  EXPECT_FALSE(obs::WriteChromeTrace("/nonexistent-dir/trace.json"));
}

// Regression: spans used to exist only in their destructor, so a trace
// written while a span was still open silently dropped it. Open spans
// are now registered at construction and written mid-flight with the
// duration clamped to the dump time.
TEST(ObsTraceTest, OpenSpansAppearInMidFlightWrites) {
  obs::ClearTrace();
  obs::EnableTracing();
  const std::string path = ::testing::TempDir() + "obs_test_open.json";
  {
    obs::TraceSpan span("obs_test.open", 3);
    EXPECT_EQ(obs::OpenTraceSpanCount(), 1u);
    EXPECT_EQ(obs::TraceSpanCount(), 0u);  // not yet buffered
    ASSERT_TRUE(obs::WriteChromeTrace(path));
    const std::string mid_flight = ReadFile(path);
    EXPECT_NE(mid_flight.find("\"obs_test.open\""), std::string::npos)
        << mid_flight;
  }
  EXPECT_EQ(obs::OpenTraceSpanCount(), 0u);
  EXPECT_EQ(obs::TraceSpanCount(), 1u);  // buffered exactly once
  ASSERT_TRUE(obs::WriteChromeTrace(path));
  const std::string closed = ReadFile(path);
  const std::size_t first = closed.find("\"obs_test.open\"");
  ASSERT_NE(first, std::string::npos) << closed;
  // Closed and de-registered: the span appears once, not twice.
  EXPECT_EQ(closed.find("\"obs_test.open\"", first + 1),
            std::string::npos);
  obs::DisableTracing();
  obs::ClearTrace();

  // Spans opened while tracing is off never register.
  {
    obs::TraceSpan span("obs_test.untraced", 0);
    EXPECT_EQ(obs::OpenTraceSpanCount(), 0u);
  }
  EXPECT_EQ(obs::TraceSpanCount(), 0u);
}

#else  // !ICP_OBS

TEST(ObsCompiledOutTest, StubsReportEmptyRegistry) {
  obs::RegisterAllCounters();
  obs::ResetAllCounters();
  ICP_OBS_ADD(ScanWordsExamined, 5);  // expands to nothing
  ICP_OBS_INCREMENT(EngineQueries);
  EXPECT_TRUE(obs::SnapshotCounters().empty());
  EXPECT_EQ(obs::CounterValue("scan.words_examined"), 0u);
  EXPECT_EQ(obs::SnapshotText(), "");
  EXPECT_EQ(obs::SnapshotJson(), "{}");
}

TEST(ObsCompiledOutTest, TracingIsInert) {
  obs::EnableTracing();
  EXPECT_FALSE(obs::TracingEnabled());
  obs::RecordSpan("obs_test.span", 0, 0, 10);
  { ICP_OBS_TRACE_SPAN("obs_test.scoped", 1); }
  EXPECT_EQ(obs::TraceSpanCount(), 0u);
  EXPECT_EQ(obs::OpenTraceSpanCount(), 0u);
  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  EXPECT_FALSE(obs::WriteChromeTrace(path));
}

#endif  // ICP_OBS

}  // namespace
}  // namespace icp
