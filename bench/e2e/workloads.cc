#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <thread>

#include "io/table_io.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/random.h"

namespace icp::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int EngineThreads() {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(nproc, 1, 4);
}

// Builds the table `build()` returns several times into w->table, keeping
// the last one: at least 3 repetitions, more while under the workload's
// set-up budget (at most 51), so that a table that builds in a second or in
// milliseconds still gives a steady median. The previous repetition's table
// is freed before the next is timed.
template <typename Build>
Status TimeSetup(Build&& build, Workload* w) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 3 ||
         (SecondsSince(start) < w->setup_budget_s && samples.size() < 51)) {
    w->table = Table();
    const Clock::time_point t0 = Clock::now();
    StatusOr<Table> built = build();
    samples.push_back(SecondsSince(t0));
    ICP_RETURN_IF_ERROR(built.status());
    w->table = std::move(built).value();
  }
  w->setup.setup_s = Median(samples);
  w->setup.setup_reps = static_cast<int>(samples.size());
  return Status::Ok();
}

std::string AggSql(AggKind kind, const std::string& column) {
  return std::string(AggKindToString(kind)) + "(" + column + ")";
}

// Exact answer from the filtered aggregate state of the plain-loop
// oracles.
struct Filtered {
  std::uint64_t count = 0;
  __int128 sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t median = 0;
};

Answer AnswerFor(AggKind kind, const Filtered& f) {
  Answer a;
  a.count = f.count;
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kRank:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      a.value = f.sum;
      break;
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kMedian:
      a.has_value = f.count > 0;
      if (a.has_value) {
        a.value = kind == AggKind::kMin   ? f.min
                  : kind == AggKind::kMax ? f.max
                                          : f.median;
      }
      break;
  }
  return a;
}

// ---------------------------------------------------------------------------
// Q1 shape: SELECT AGG(x) WHERE z < c over uniform x (25 bits), z (12 bits).
// ---------------------------------------------------------------------------

constexpr int kXBits = 25;
constexpr int kZBits = 12;
constexpr std::int64_t kZDomain = std::int64_t{1} << kZBits;
constexpr AggKind kQ1Aggs[] = {AggKind::kCount, AggKind::kSum,
                               AggKind::kAvg,   AggKind::kMin,
                               AggKind::kMax,   AggKind::kMedian};

struct Q1Data {
  std::vector<std::int64_t> x;
  std::vector<std::int64_t> z;
};

Q1Data GenerateQ1(std::size_t rows, std::uint64_t seed) {
  Random rng(seed);
  Q1Data d;
  d.x.resize(rows);
  d.z.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    d.x[i] = static_cast<std::int64_t>(
        rng.UniformInt(0, (std::uint64_t{1} << kXBits) - 1));
    d.z[i] = static_cast<std::int64_t>(rng.UniformInt(0, kZDomain - 1));
  }
  return d;
}

StatusOr<Table> BuildQ1Table(const Q1Data& d) {
  Table t;
  ICP_RETURN_IF_ERROR(t.AddColumn(
      "x", d.x, ColumnSpec{.layout = Layout::kVbp, .bit_width = kXBits}));
  ICP_RETURN_IF_ERROR(t.AddColumn(
      "z", d.z, ColumnSpec{.layout = Layout::kVbp, .bit_width = kZBits}));
  return t;
}

// Plain-loop oracle for one threshold; `median` is computed only when
// asked (it needs the passing values gathered and partially sorted).
Filtered ScanQ1(const Q1Data& d, std::int64_t c, bool median,
                std::vector<std::int64_t>* scratch) {
  Filtered f;
  f.min = INT64_MAX;
  f.max = INT64_MIN;
  scratch->clear();
  for (std::size_t i = 0; i < d.x.size(); ++i) {
    if (d.z[i] >= c) continue;
    const std::int64_t v = d.x[i];
    ++f.count;
    f.sum += v;
    f.min = std::min(f.min, v);
    f.max = std::max(f.max, v);
    if (median) scratch->push_back(v);
  }
  if (median && f.count > 0) {
    const auto nth = scratch->begin() +
                     static_cast<std::ptrdiff_t>(LowerMedianRank(f.count) - 1);
    std::nth_element(scratch->begin(), nth, scratch->end());
    f.median = *nth;
  }
  return f;
}

// Statements as (aggregate, threshold) pairs; answers come from one oracle
// scan per distinct threshold.
void AddQ1Statements(const Q1Data& d,
                     const std::vector<std::pair<AggKind, std::int64_t>>& mix,
                     std::vector<Statement>* out) {
  std::map<std::int64_t, bool> need_median;
  for (const auto& [kind, c] : mix) {
    need_median[c] = need_median[c] || kind == AggKind::kMedian;
  }
  std::map<std::int64_t, Filtered> oracle;
  std::vector<std::int64_t> scratch;
  for (const auto& [c, median] : need_median) {
    oracle[c] = ScanQ1(d, c, median, &scratch);
  }
  for (const auto& [kind, c] : mix) {
    Statement s;
    s.kind = StatementKind::kSelect;
    s.sql = "SELECT " + AggSql(kind, "x") + " WHERE z < " + std::to_string(c);
    s.parse_text = s.sql;
    s.aggregates = {{kind, "x"}};
    s.expected.push_back(AnswerFor(kind, oracle[c]));
    out->push_back(std::move(s));
  }
}

std::int64_t ThresholdFor(double selectivity) {
  return std::clamp<std::int64_t>(
      std::llround(selectivity * static_cast<double>(kZDomain)), 1,
      kZDomain - 1);
}

Status MakeQ1(std::uint64_t seed, Workload* w) {
  Q1Data d = GenerateQ1(w->rows, seed);
  // 48 statements: every aggregate at eight selectivities from 1% to 99%.
  static constexpr double kSelectivities[] = {0.01, 0.05, 0.10, 0.25,
                                              0.50, 0.75, 0.90, 0.99};
  std::vector<std::pair<AggKind, std::int64_t>> mix;
  for (const double s : kSelectivities) {
    for (const AggKind kind : kQ1Aggs) mix.emplace_back(kind, ThresholdFor(s));
  }
  AddQ1Statements(d, mix, &w->statements);
  ICP_RETURN_IF_ERROR(TimeSetup([&] { return BuildQ1Table(d); }, w));
  w->setup.pack_s = w->setup.setup_s;
  return Status::Ok();
}

Status MakeSmall(std::uint64_t seed, Workload* w) {
  Q1Data d = GenerateQ1(w->rows, seed);
  // 256 statements cycling through the aggregates with stratified
  // selectivities ((i + u) / 256, u seeded), so every seed runs the same
  // cost mix to within one stratum.
  Random rng(seed ^ 0x5eed5eed5eed5eedULL);
  constexpr int kStatements = 256;
  std::vector<std::pair<AggKind, std::int64_t>> mix;
  for (int i = 0; i < kStatements; ++i) {
    const double s = (i + rng.UniformDouble()) / kStatements;
    mix.emplace_back(kQ1Aggs[i % std::size(kQ1Aggs)], ThresholdFor(s));
  }
  AddQ1Statements(d, mix, &w->statements);
  ICP_RETURN_IF_ERROR(TimeSetup([&] { return BuildQ1Table(d); }, w));
  w->setup.pack_s = w->setup.setup_s;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// GROUP BY: SELECT SUM(v) [WHERE z < c] GROUP BY gK, K in {4, 12, 16}.
// ---------------------------------------------------------------------------

constexpr int kVBits = 20;
constexpr int kGroupBits[] = {4, 12, 16};

// Group values are sparse (code * 7919 + 1), which is what the dictionary
// encoding is for.
std::int64_t GroupValue(std::uint64_t code) {
  return static_cast<std::int64_t>(code) * 7919 + 1;
}

struct GroupByData {
  std::vector<std::int64_t> v;
  std::vector<std::int64_t> z;
  std::vector<std::vector<std::uint32_t>> codes;  // one per kGroupBits
};

StatusOr<Table> BuildGroupByTable(const GroupByData& d) {
  Table t;
  ICP_RETURN_IF_ERROR(t.AddColumn(
      "v", d.v, ColumnSpec{.layout = Layout::kVbp, .bit_width = kVBits}));
  ICP_RETURN_IF_ERROR(t.AddColumn(
      "z", d.z, ColumnSpec{.layout = Layout::kVbp, .bit_width = kZBits}));
  std::vector<std::int64_t> values(d.v.size());
  for (std::size_t g = 0; g < d.codes.size(); ++g) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = GroupValue(d.codes[g][i]);
    }
    ICP_RETURN_IF_ERROR(t.AddColumn(
        "g" + std::to_string(kGroupBits[g]), values,
        ColumnSpec{.layout = Layout::kVbp, .dictionary = true}));
  }
  return t;
}

Status MakeGroupBy(std::uint64_t seed, Workload* w) {
  Random rng(seed);
  GroupByData d;
  d.v.resize(w->rows);
  d.z.resize(w->rows);
  d.codes.assign(std::size(kGroupBits), std::vector<std::uint32_t>(w->rows));
  for (std::size_t i = 0; i < w->rows; ++i) {
    d.v[i] = static_cast<std::int64_t>(
        rng.UniformInt(0, (std::uint64_t{1} << kVBits) - 1));
    d.z[i] = static_cast<std::int64_t>(rng.UniformInt(0, kZDomain - 1));
    for (std::size_t g = 0; g < std::size(kGroupBits); ++g) {
      d.codes[g][i] = static_cast<std::uint32_t>(
          rng.UniformInt(0, (std::uint64_t{1} << kGroupBits[g]) - 1));
    }
  }
  // Nine statements: each group column unfiltered, at 10% and at 60%.
  static constexpr double kSelectivities[] = {0.0, 0.10, 0.60};
  for (std::size_t g = 0; g < std::size(kGroupBits); ++g) {
    for (const double s : kSelectivities) {
      const std::int64_t c = s == 0.0 ? kZDomain : ThresholdFor(s);
      Statement st;
      st.kind = StatementKind::kGroupBy;
      st.group_column = "g" + std::to_string(kGroupBits[g]);
      st.aggregates = {{AggKind::kSum, "v"}};
      st.parse_text = "SELECT SUM(v)";
      if (s != 0.0) st.parse_text += " WHERE z < " + std::to_string(c);
      st.sql = st.parse_text + " GROUP BY " + st.group_column;
      std::vector<Filtered> groups(std::size_t{1} << kGroupBits[g]);
      for (std::size_t i = 0; i < w->rows; ++i) {
        if (d.z[i] >= c) continue;
        Filtered& f = groups[d.codes[g][i]];
        ++f.count;
        f.sum += d.v[i];
      }
      for (std::size_t code = 0; code < groups.size(); ++code) {
        if (groups[code].count == 0) continue;
        st.expected_groups.push_back(
            {GroupValue(code), AnswerFor(AggKind::kSum, groups[code])});
      }
      w->statements.push_back(std::move(st));
    }
  }
  ICP_RETURN_IF_ERROR(TimeSetup([&] { return BuildGroupByTable(d); }, w));
  w->setup.pack_s = w->setup.setup_s;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// TPC-H: the nine Table II queries over the HBP wide table, read from disk.
// ---------------------------------------------------------------------------

const char* OpSql(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kBetween:
      return "BETWEEN";
  }
  return "?";
}

// Renders a filter tree in the parser's syntax (query_parser.h). The
// oracle runs the original tree, so a rendering bug shows as a mismatch.
std::string RenderSql(const FilterExpr& e) {
  switch (e.kind()) {
    case FilterExpr::Kind::kLeaf:
      if (e.op() == CompareOp::kBetween) {
        return e.column() + " BETWEEN " + std::to_string(e.value()) +
               " AND " + std::to_string(e.value2());
      }
      return e.column() + " " + OpSql(e.op()) + " " +
             std::to_string(e.value());
    case FilterExpr::Kind::kAnd:
    case FilterExpr::Kind::kOr: {
      const char* sep =
          e.kind() == FilterExpr::Kind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (std::size_t i = 0; i < e.children().size(); ++i) {
        if (i > 0) out += sep;
        out += RenderSql(*e.children()[i]);
      }
      return out + ")";
    }
    case FilterExpr::Kind::kNot:
      return "NOT (" + RenderSql(*e.children()[0]) + ")";
    case FilterExpr::Kind::kIsNull:
      return e.column() + " IS NULL";
    case FilterExpr::Kind::kIsNotNull:
      return e.column() + " IS NOT NULL";
  }
  return "?";
}

Status MakeTpch(std::uint64_t seed, const std::string& data_dir,
                Workload* w) {
  const std::vector<tpch::QuerySpec> specs = tpch::MakeQueries();
  const std::string path = (std::filesystem::path(data_dir) /
                            ("tpch_" + std::to_string(w->rows) + "_" +
                             std::to_string(seed) + ".icpt"))
                               .string();
  {
    tpch::WideTableData data =
        tpch::GenerateWideTable({.num_rows = w->rows, .seed = seed});
    {
      const Clock::time_point t0 = Clock::now();
      StatusOr<Table> hbp = tpch::BuildTable(data, Layout::kHbp);
      w->setup.pack_s = SecondsSince(t0);
      ICP_RETURN_IF_ERROR(hbp.status());
      ICP_RETURN_IF_ERROR(io::WriteTable(*hbp, path));
    }
    // Oracle: a naive-layout copy on a 1-thread engine, fed the original
    // filter trees rather than the rendered SQL.
    StatusOr<Table> naive = tpch::BuildTable(data, Layout::kNaive);
    ICP_RETURN_IF_ERROR(naive.status());
    Engine oracle{ExecOptions()};
    for (const tpch::QuerySpec& spec : specs) {
      Statement s;
      s.kind = StatementKind::kMulti;
      s.parse_text = RenderSql(*spec.filter);
      s.aggregates = spec.aggregates;
      s.sql = "SELECT ";
      for (std::size_t i = 0; i < spec.aggregates.size(); ++i) {
        if (i > 0) s.sql += ", ";
        s.sql += AggSql(spec.aggregates[i].first, spec.aggregates[i].second);
      }
      s.sql += " WHERE " + s.parse_text;
      auto results = oracle.ExecuteMulti(
          *naive, MultiQuery{.aggregates = spec.aggregates,
                             .filter = spec.filter});
      ICP_RETURN_IF_ERROR(results.status());
      for (std::size_t i = 0; i < results->size(); ++i) {
        const auto& [kind, column] = spec.aggregates[i];
        StatusOr<const Table::Column*> col = naive->GetColumn(column);
        ICP_RETURN_IF_ERROR(col.status());
        s.expected.push_back(ToAnswer(**col, kind, (*results)[i]));
      }
      w->statements.push_back(std::move(s));
    }
  }
  const Status read = TimeSetup([&] { return io::ReadTable(path); }, w);
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  return read;
}

struct WorkloadSpec {
  const char* name;
  int log2_rows;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"q1_vbp_16m", 24},
    {"tpch_hbp_2m", 21},
    {"groupby_vbp_1m", 20},
    {"small_governed_64k", 16},
};

}  // namespace

StatusOr<Workload> MakeWorkload(const std::string& name, std::size_t rows,
                                std::uint64_t seed, double setup_budget_s,
                                const std::string& data_dir) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (name == s.name) spec = &s;
  }
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  Workload w;
  w.name = name;
  w.rows = rows != 0 ? rows : std::size_t{1} << spec->log2_rows;
  w.threads = EngineThreads();
  w.setup_budget_s = setup_budget_s;
  if (name == "q1_vbp_16m") {
    ICP_RETURN_IF_ERROR(MakeQ1(seed, &w));
  } else if (name == "tpch_hbp_2m") {
    w.governed = true;
    ICP_RETURN_IF_ERROR(MakeTpch(seed, data_dir, &w));
  } else if (name == "groupby_vbp_1m") {
    ICP_RETURN_IF_ERROR(MakeGroupBy(seed, &w));
  } else {
    // Four clients, two admitted at a time: queries do wait in admission.
    w.clients = EngineThreads();
    w.governed = true;
    w.admission.max_concurrent = 2;
    w.admission.max_queued = 8;
    ICP_RETURN_IF_ERROR(MakeSmall(seed, &w));
  }
  return w;
}

Answer ToAnswer(const Table::Column& column, AggKind kind,
                const QueryResult& result) {
  Answer a;
  a.count = result.count;
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kRank:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      // Value-domain sum = min * count + code-domain sum.
      a.value = static_cast<__int128>(column.encoder().min_value()) *
                    static_cast<__int128>(result.count) +
                static_cast<__int128>(result.code_sum);
      break;
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kMedian:
      a.has_value = result.decoded_value.has_value();
      if (a.has_value) a.value = *result.decoded_value;
      break;
  }
  return a;
}

}  // namespace icp::e2e
