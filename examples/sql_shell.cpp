// Interactive SQL-subset shell over a synthetic "trips" table.
//
// Build & run:    ./build/examples/sql_shell
// Non-interactive:
//   ./build/examples/sql_shell -c "SELECT AVG(fare) WHERE distance > 5000"
//
// Supported: SELECT COUNT|SUM|AVG|MIN|MAX|MEDIAN(column) and
// RANK(column, r), WHERE with AND/OR/NOT, =/!=/<>/</<=/>/>=, BETWEEN,
// IN (...), IS [NOT] NULL, integer/decimal/'YYYY-MM-DD' literals.
// Prefix any statement with EXPLAIN ANALYZE for the per-stage report.
//
// Meta-commands: \counters (obs counter + histogram snapshot), \stats
// (the last query's QueryStats as the EXPLAIN ANALYZE table), \q.
//
// Flags:
//   --trace <path>    record a Chrome trace (open in Perfetto /
//                     chrome://tracing); written when the shell exits.
//   --admin-port <p>  serve /healthz /counters /metrics /queries
//                     /traces on 127.0.0.1:<p> (0 = ephemeral).
//   --slow-cycles <n> slow-query journal threshold in cycles
//                     (default 10000000; 0 disables).
//
// Queries run admitted against a QueryGovernor so the admin plane's
// /queries endpoint and the admission.wait trace span are live.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "icp.h"

namespace {

using namespace icp;

Table MakeTripsTable() {
  Random rng(314159);
  const std::size_t n = 1'000'000;
  std::vector<std::int64_t> distance(n), fare(n), tip(n), passengers(n),
      pickup_day(n);
  std::vector<bool> tip_known(n);
  for (std::size_t i = 0; i < n; ++i) {
    distance[i] = static_cast<std::int64_t>(rng.UniformInt(200, 30000));
    fare[i] = 250 + distance[i] / 8 +
              static_cast<std::int64_t>(rng.UniformInt(0, 500));
    tip_known[i] = !rng.Bernoulli(0.35);  // cash tips unrecorded -> NULL
    tip[i] = tip_known[i]
                 ? static_cast<std::int64_t>(rng.UniformInt(0, 2000))
                 : 0;
    passengers[i] = static_cast<std::int64_t>(rng.UniformInt(1, 6));
    pickup_day[i] = DaysFromCivil(2024, 1, 1) +
                    static_cast<std::int64_t>(rng.UniformInt(0, 180));
  }
  Table table;
  ICP_CHECK(table.AddColumn("distance", distance, {}).ok());
  ICP_CHECK(table.AddColumn("fare", fare, {.layout = Layout::kHbp}).ok());
  ICP_CHECK(table.AddNullableColumn("tip", tip, tip_known, {}).ok());
  ICP_CHECK(table
                .AddColumn("passengers", passengers,
                           {.layout = Layout::kHbp, .dictionary = true})
                .ok());
  ICP_CHECK(table.AddColumn("pickup_day", pickup_day, {}).ok());
  return table;
}

/// Last-query state the \stats meta-command renders.
struct ShellState {
  obs::QueryStats stats;  // the engine's stats sink
  QueryResult last_result;
  bool have_result = false;
};

void RunStatement(Engine& engine, const Table& table, ShellState& state,
                  const std::string& sql) {
  auto stmt = ParseStatement(sql);
  if (!stmt.ok()) {
    std::printf("  error: %s\n", stmt.status().ToString().c_str());
    return;
  }
  if (stmt->explain_analyze) {
    auto report =
        engine.ExplainAnalyze(table, stmt->query, stmt->parse_cycles);
    if (!report.ok()) {
      std::printf("  error: %s\n", report.status().ToString().c_str());
      return;
    }
    std::printf("%s", report->c_str());
    return;
  }
  ICP_OBS_HISTOGRAM_RECORD(StageParseCycles, stmt->parse_cycles);
  auto result = engine.Execute(table, stmt->query);
  if (!result.ok()) {
    std::printf("  error: %s\n", result.status().ToString().c_str());
    return;
  }
  state.last_result = *result;
  state.have_result = true;
  const double per_tuple =
      static_cast<double>(result->scan_cycles + result->agg_cycles) /
      static_cast<double>(table.num_rows());
  const bool value_kind = result->kind == AggKind::kMin ||
                          result->kind == AggKind::kMax ||
                          result->kind == AggKind::kMedian ||
                          result->kind == AggKind::kRank;
  if (result->kind == AggKind::kCount) {
    std::printf("  COUNT = %llu   (%.2f cycles/tuple)\n",
                static_cast<unsigned long long>(result->count), per_tuple);
  } else if (value_kind && !result->decoded_value.has_value()) {
    std::printf("  NULL   (%llu rows matched%s)\n",
                static_cast<unsigned long long>(result->count),
                result->kind == AggKind::kRank ? "; rank out of range" : "");
  } else if (result->count == 0) {
    std::printf("  no rows matched\n");
  } else {
    std::printf("  %s = %.4f   (%llu rows, %.2f cycles/tuple)\n",
                AggKindToString(result->kind), result->value,
                static_cast<unsigned long long>(result->count), per_tuple);
  }
}

/// Handles \q, \counters, \stats; returns false when the shell should
/// exit.
bool RunMetaCommand(const ShellState& state, const std::string& line) {
  if (line == "\\q") return false;
  if (line == "\\counters") {
    std::printf("%s", obs::SnapshotText().c_str());
    std::printf("%s", obs::HistogramsText().c_str());
    return true;
  }
  if (line == "\\stats") {
    if (!state.have_result) {
      std::printf("  no query executed yet\n");
    } else {
      std::printf("%s",
                  FormatExplainAnalyze(state.stats, state.last_result)
                      .c_str());
    }
    return true;
  }
  std::printf("  unknown meta-command '%s' (try \\counters, \\stats, \\q)\n",
              line.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string one_shot;
  bool have_one_shot = false;
  int admin_port = -1;
  std::uint64_t slow_cycles = 10'000'000;
  for (int arg = 1; arg < argc; ++arg) {
    const char* flag = argv[arg];
    if (std::strcmp(flag, "--trace") == 0 && arg + 1 < argc) {
      trace_path = argv[++arg];
      icp::obs::EnableTracing();
    } else if (std::strcmp(flag, "--admin-port") == 0 && arg + 1 < argc) {
      admin_port = std::atoi(argv[++arg]);
    } else if (std::strcmp(flag, "--slow-cycles") == 0 && arg + 1 < argc) {
      slow_cycles = static_cast<std::uint64_t>(
          std::strtoull(argv[++arg], nullptr, 10));
    } else if (std::strcmp(flag, "-c") == 0 && arg + 1 < argc) {
      one_shot = argv[++arg];
      have_one_shot = true;
    } else {
      std::printf("usage: sql_shell [--trace <path>] [--admin-port <port>] "
                  "[--slow-cycles <n>] [-c \"<stmt>\"]\n");
      return 2;
    }
  }
  icp::obs::SetSlowQueryThresholdCycles(slow_cycles);

  std::printf("building 1M-row trips table (distance, fare, tip [nullable], "
              "passengers, pickup_day)...\n");
  const icp::Table table = MakeTripsTable();

  // Declaration order doubles as teardown order: the admin server stops
  // before the governor it introspects; the governor outlives the engine
  // whose queries it admits and dies before its scheduler.
  icp::sched::MorselScheduler scheduler(3);
  icp::sched::QueryGovernor governor(scheduler, {});
  ShellState state;
  icp::Engine engine(icp::ExecOptions{.threads = 4,
                                      .stats = &state.stats,
                                      .governor = &governor});
  icp::obs::AdminServer admin;
  if (admin_port >= 0) {
    admin.set_queries_provider(
        [&governor] { return governor.DescribeJson(); });
    const icp::Status started = admin.Start(admin_port);
    if (!started.ok()) {
      std::printf("  error: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("admin plane on http://127.0.0.1:%d "
                "(/healthz /counters /metrics /queries /traces)\n",
                admin.port());
  }

  if (have_one_shot) {
    RunStatement(engine, table, state, one_shot);
    if (!trace_path.empty() && !icp::obs::WriteChromeTrace(trace_path)) {
      std::printf("  error: could not write trace to %s\n",
                  trace_path.c_str());
      return 1;
    }
    return 0;
  }

  std::printf("example: SELECT MEDIAN(fare) WHERE distance > 10000 AND tip "
              "IS NOT NULL\n");
  std::printf("type \\q to quit\n");
  std::string line;
  while (true) {
    std::printf("icp> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line[0] == '\\') {
      if (!RunMetaCommand(state, line)) break;
      continue;
    }
    RunStatement(engine, table, state, line);
  }
  if (!trace_path.empty() && !icp::obs::WriteChromeTrace(trace_path)) {
    std::printf("  error: could not write trace to %s\n", trace_path.c_str());
    return 1;
  }
  return 0;
}
