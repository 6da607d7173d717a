// Workloads of the end-to-end benchmark: seeded input generators, the SQL
// statement lists the clients send, and the exact answers each statement
// must return (computed once per run from the raw generated values with
// plain loops, or for TPC-H on a 1-thread engine over a naive-layout copy).
//
// Why each workload exists is recorded in README.md; in short:
//   q1_vbp_16m          the paper's Q1 on a table larger than L2 but
//                       inside the LLC (kernels)
//   tpch_hbp_2m         Table II queries, HBP, governed, loaded via src/io
//   groupby_vbp_1m      GROUP BY at 2^4 / 2^12 / 2^16 groups (src/groupby)
//   small_governed_64k  L2-resident table, 4 clients, shared governor
//                       (fixed per-query cost)

#ifndef ICP_BENCH_E2E_WORKLOADS_H_
#define ICP_BENCH_E2E_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "engine/engine.h"
#include "engine/table.h"
#include "sched/admission.h"
#include "util/status.h"

namespace icp::e2e {

/// One aggregate's exact answer in the value domain.
struct Answer {
  std::uint64_t count = 0;
  /// SUM/AVG: the exact sum of the passing values. MIN/MAX/MEDIAN: the
  /// selected value. Unused (0) for COUNT and when no row passes.
  __int128 value = 0;
  bool has_value = false;

  bool operator==(const Answer&) const = default;
};

/// One non-empty group of a GROUP BY answer.
struct GroupAnswer {
  std::int64_t group = 0;
  Answer answer;

  bool operator==(const GroupAnswer&) const = default;
};

enum class StatementKind {
  /// `SELECT AGG(col) [WHERE ...]`: ParseQuery + Engine::Execute.
  kSelect,
  /// Several aggregates over one filter: the WHERE text goes through
  /// ParsePredicate (the parser has no aggregate lists) and the query
  /// through Engine::ExecuteMulti.
  kMulti,
  /// `SELECT AGG(col) [WHERE ...] GROUP BY g`: the text before GROUP BY
  /// goes through ParseQuery, then Engine::ExecuteGroupBy.
  kGroupBy,
};

struct Statement {
  StatementKind kind = StatementKind::kSelect;
  /// The full statement text (what a client sends and what records show).
  std::string sql;
  /// The part the parser sees: the SELECT for kSelect/kGroupBy, the
  /// predicate for kMulti.
  std::string parse_text;
  /// The (aggregate, column) pairs the statement computes; one for
  /// kSelect/kGroupBy.
  std::vector<std::pair<AggKind, std::string>> aggregates;
  /// kGroupBy: the dictionary-encoded group column.
  std::string group_column;

  std::vector<Answer> expected;             // kSelect (1), kMulti (k)
  std::vector<GroupAnswer> expected_groups; // kGroupBy
};

/// Measured while building the workload (before any query runs).
struct SetupTimes {
  /// Median over the repetitions of raw values -> queryable Table
  /// (Table::AddColumn calls, or io::ReadTable for tpch).
  double setup_s = 0;
  int setup_reps = 0;
  /// Table::AddColumn time from raw values (for tpch: the HBP table the
  /// benchmark then writes to disk).
  double pack_s = 0;
};

struct Workload {
  std::string name;
  std::size_t rows = 0;
  /// Closed-loop client threads (each with its own Engine).
  int clients = 1;
  /// Engine worker threads (ExecOptions::threads).
  int threads = 1;
  /// Governed workloads share one QueryGovernor over a MorselScheduler
  /// with nproc - 1 workers.
  bool governed = false;
  sched::AdmissionOptions admission;

  /// Set-up repetitions continue while under this many seconds (at least
  /// 3, at most 51).
  double setup_budget_s = 0;

  Table table;
  std::vector<Statement> statements;
  SetupTimes setup;
};

/// Generates `name`'s inputs from `seed`, computes every statement's
/// expected answer, and builds the table (timing the set-up within
/// `setup_budget_s`). `rows` 0 keeps the workload's own size; --smoke
/// passes 2^16. tpch writes its table file into `data_dir`. Raw generated
/// vectors are freed before this returns.
StatusOr<Workload> MakeWorkload(const std::string& name, std::size_t rows,
                                std::uint64_t seed, double setup_budget_s,
                                const std::string& data_dir);

/// Converts one engine result to its value-domain answer (`column` is the
/// aggregated column, whose encoder gives the code-domain offset).
Answer ToAnswer(const Table::Column& column, AggKind kind,
                const QueryResult& result);

}  // namespace icp::e2e

#endif  // ICP_BENCH_E2E_WORKLOADS_H_
