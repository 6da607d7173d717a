// icp_e2e: end-to-end engine benchmark harness (see README.md).
//
//   icp_e2e --workload NAME --seconds S --seed N [--trace out.json]
//           [--rows R] [--data-dir DIR]
//
// Builds one workload (workloads.h) and drives it closed-loop: every client
// thread sends its next statement, as SQL text, only after the previous one
// returned. After an untimed warm-up (whole passes for a tenth of S, at
// least one):
//   * untraced (no --trace): S seconds timed; prints the end-to-end
//     metrics (setup, qps, latency percentiles, errors, RSS).
//   * traced (--trace): S/2 seconds untraced, S/2 seconds with QueryStats
//     and benchmark spans on, a decomposed replay that calls
//     EvaluateFilter and Aggregate separately, the same statements on a
//     1-thread against an N-thread engine, and the table written and read
//     back through src/io; prints the per-layer metrics and writes the
//     spans as a Chrome trace.
// Every result is checked against the workload's oracle. The record is one
// JSON object on stdout. Exit status: 0 when every statement returned the
// right answer, 1 otherwise, 2 on bad usage or a set-up failure.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/query_parser.h"
#include "io/table_io.h"
#include "obs/query_stats.h"
#include "sched/admission.h"
#include "sched/scheduler.h"
#include "simd/dispatch.h"
#include "spans.h"
#include "util/rdtsc.h"
#include "workloads.h"

namespace icp::e2e {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return sum;
}

// TSC ticks per nanosecond, measured against steady_clock; converts the
// engine's QueryStats cycle counts to time.
double CalibrateTscGhz() {
  const std::uint64_t c0 = ReadCycleCounter();
  const Clock::time_point t0 = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t c1 = ReadCycleCounter();
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return static_cast<double>(c1 - c0) / ns;
}

// VmRSS in MiB. Heap the benchmark freed (raw inputs, oracle copies,
// earlier set-up repetitions) is handed back to the OS first, so the value
// counts what the table and the engines hold rather than the allocator's
// history.
double RssMiB() {
  malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Running and checking statements.
// ---------------------------------------------------------------------------

struct Outcome {
  Status status;
  bool correct = false;
  std::int64_t start_ns = 0;
  std::int64_t parse_end_ns = 0;
  std::int64_t end_ns = 0;
};

bool SameAnswers(const Table& table, const Statement& s,
                 const std::vector<QueryResult>& results) {
  if (results.size() != s.expected.size()) return false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [kind, column] = s.aggregates[i];
    StatusOr<const Table::Column*> col = table.GetColumn(column);
    if (!col.ok() || ToAnswer(**col, kind, results[i]) != s.expected[i]) {
      return false;
    }
  }
  return true;
}

bool SameGroups(
    const Table& table, const Statement& s,
    const std::vector<std::pair<std::int64_t, QueryResult>>& groups) {
  StatusOr<const Table::Column*> col = table.GetColumn(s.aggregates[0].second);
  if (!col.ok() || groups.size() != s.expected_groups.size()) return false;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupAnswer& want = s.expected_groups[i];
    if (groups[i].first != want.group ||
        ToAnswer(**col, s.aggregates[0].first, groups[i].second) !=
            want.answer) {
      return false;
    }
  }
  return true;
}

// A parsed statement: the Query for kSelect/kGroupBy, the filter alone for
// kMulti.
struct Parsed {
  Status status;
  Query query;
};

Parsed Parse(const Statement& s) {
  Parsed p;
  if (s.kind == StatementKind::kMulti) {
    StatusOr<FilterExprPtr> filter = ParsePredicate(s.parse_text);
    p.status = filter.status();
    if (filter.ok()) p.query.filter = *filter;
  } else {
    StatusOr<Query> query = ParseQuery(s.parse_text);
    p.status = query.status();
    if (query.ok()) p.query = std::move(query).value();
  }
  return p;
}

// SQL text to checked result through the engine's public entry points.
Outcome RunStatement(Engine& engine, const Table& table, const Statement& s) {
  Outcome o;
  o.start_ns = NowNs();
  const Parsed p = Parse(s);
  o.parse_end_ns = NowNs();
  o.status = p.status;
  if (!p.status.ok()) {
    o.end_ns = o.parse_end_ns;
    return o;
  }
  switch (s.kind) {
    case StatementKind::kSelect: {
      StatusOr<QueryResult> r = engine.Execute(table, p.query);
      o.end_ns = NowNs();
      o.status = r.status();
      o.correct = r.ok() && SameAnswers(table, s, {*r});
      break;
    }
    case StatementKind::kMulti: {
      StatusOr<std::vector<QueryResult>> r = engine.ExecuteMulti(
          table, MultiQuery{.aggregates = s.aggregates,
                            .filter = p.query.filter});
      o.end_ns = NowNs();
      o.status = r.status();
      o.correct = r.ok() && SameAnswers(table, s, *r);
      break;
    }
    case StatementKind::kGroupBy: {
      auto r = engine.ExecuteGroupBy(table, p.query, s.group_column);
      o.end_ns = NowNs();
      o.status = r.status();
      o.correct = r.ok() && SameGroups(table, s, *r);
      break;
    }
  }
  return o;
}

// Aggregate kinds grouped as the agg.<bucket>.ms_p50 metrics.
const char* AggBucket(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
    case AggKind::kAvg:
      return "sum";
    case AggKind::kMin:
    case AggKind::kMax:
      return "minmax";
    case AggKind::kMedian:
    case AggKind::kRank:
      return "median";
  }
  return "sum";
}

struct ReplayTimes {
  std::vector<double> filter_ns;
  std::map<std::string, std::vector<double>> agg_ns_by_bucket;
};

// The statement with its phases as separate public calls: EvaluateFilter,
// then one Aggregate per aggregate. GROUP BY has no aggregate-only entry
// point, so its replay times ExecuteGroupBy whole after the filter.
Outcome ReplayStatement(Engine& engine, const Table& table,
                        const Statement& s, SpanRecorder& rec,
                        std::uint64_t id, ReplayTimes* times) {
  Outcome o;
  o.start_ns = NowNs();
  const int root = rec.Root("query", o.start_ns, id);
  const Parsed p = Parse(s);
  o.parse_end_ns = NowNs();
  o.end_ns = o.parse_end_ns;
  rec.Child(root, "engine.parse", o.start_ns, o.parse_end_ns);
  o.status = p.status;
  if (p.status.ok()) {
    const std::string& shape = s.kind == StatementKind::kGroupBy
                                   ? s.group_column
                                   : s.aggregates[0].second;
    StatusOr<FilterBitVector> filter =
        engine.EvaluateFilter(table, p.query.filter, shape);
    o.end_ns = NowNs();
    rec.Child(root, "engine.filter", o.parse_end_ns, o.end_ns);
    times->filter_ns.push_back(static_cast<double>(o.end_ns - o.parse_end_ns));
    o.status = filter.status();
    if (filter.ok() && s.kind == StatementKind::kGroupBy) {
      const std::int64_t t0 = o.end_ns;
      auto r = engine.ExecuteGroupBy(table, p.query, s.group_column);
      o.end_ns = NowNs();
      rec.Child(root, "engine.groupby", t0, o.end_ns);
      o.status = r.status();
      o.correct = r.ok() && SameGroups(table, s, *r);
    } else if (filter.ok()) {
      std::vector<QueryResult> results;
      for (const auto& [kind, column] : s.aggregates) {
        const std::int64_t t0 = NowNs();
        StatusOr<const Table::Column*> col = table.GetColumn(column);
        if (!col.ok()) {
          o.status = col.status();
          break;
        }
        const int vps = (*col)->values_per_segment();
        StatusOr<QueryResult> r =
            vps == filter->values_per_segment()
                ? engine.Aggregate(table, kind, column, *filter)
                : engine.Aggregate(table, kind, column, filter->Reshape(vps));
        o.end_ns = NowNs();
        rec.Child(root, "engine.aggregate", t0, o.end_ns);
        times->agg_ns_by_bucket[AggBucket(kind)].push_back(
            static_cast<double>(o.end_ns - t0));
        o.status = r.status();
        if (!r.ok()) break;
        results.push_back(*r);
      }
      o.correct = o.status.ok() && SameAnswers(table, s, results);
    }
  }
  rec.Close(root, o.end_ns);
  return o;
}

// ---------------------------------------------------------------------------
// Closed-loop clients.
// ---------------------------------------------------------------------------

// One traced statement execution.
struct Sample {
  std::size_t statement = 0;
  std::int64_t parse_ns = 0;
  std::int64_t exec_ns = 0;
  obs::QueryStats stats;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;
  std::uint64_t wrong = 0;

  void Add(const Outcome& o) {
    ++attempted;
    if (o.status.code() == StatusCode::kResourceExhausted) {
      ++shed;
    } else if (!o.status.ok()) {
      ++errors;
    } else if (!o.correct) {
      ++wrong;
    }
  }
  void Add(const Tally& t) {
    attempted += t.attempted;
    errors += t.errors;
    shed += t.shed;
    wrong += t.wrong;
  }
  std::uint64_t failed() const { return errors + shed + wrong; }
};

struct ClientResult {
  Tally tally;
  std::vector<double> latency_ms;
  std::vector<Sample> samples;  // traced phase only
};

// Whole passes over the statement list, starting at this client's offset so
// concurrent clients do not run the same statement in lockstep, until
// `deadline` (at least one pass). Stopping only between passes keeps the
// statement mix identical in every run. `stats` is the engine's QueryStats
// sink (traced phase) and `rec` its span recorder; both may be null. Spans
// are recorded for every `trace_every`-th statement, so that a recorder of
// fixed size samples the whole phase rather than its start.
ClientResult RunClient(Engine& engine, const Workload& w, int client,
                       Clock::time_point deadline,
                       const obs::QueryStats* stats, SpanRecorder* rec,
                       std::uint64_t trace_every) {
  ClientResult r;
  const std::size_t n = w.statements.size();
  const std::size_t offset = static_cast<std::size_t>(client) * n /
                             static_cast<std::size_t>(w.clients);
  std::uint64_t seq = 0;
  do {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = (offset + k) % n;
      const Outcome o = RunStatement(engine, w.table, w.statements[idx]);
      r.tally.Add(o);
      r.latency_ms.push_back(static_cast<double>(o.end_ns - o.start_ns) /
                             1e6);
      if (rec != nullptr && seq % trace_every == 0) {
        const int root =
            rec->Root("query", o.start_ns,
                      (static_cast<std::uint64_t>(client) << 40) | seq);
        rec->Child(root, "engine.parse", o.start_ns, o.parse_end_ns);
        rec->Child(root, "engine.execute", o.parse_end_ns, o.end_ns);
        rec->Close(root, o.end_ns);
      }
      if (stats != nullptr) {
        r.samples.push_back(Sample{idx, o.parse_end_ns - o.start_ns,
                                   o.end_ns - o.parse_end_ns, *stats});
      }
      ++seq;
    }
  } while (Clock::now() < deadline);
  return r;
}

struct Phase {
  std::vector<ClientResult> clients;
  double duration_s = 0;

  /// Completed statements per second of the whole phase, so that qps x
  /// duration_s reproduces the latency sample count (run.py checks this).
  double Qps() const {
    double completed = 0;
    for (const ClientResult& c : clients) {
      completed += static_cast<double>(c.latency_ms.size());
    }
    return completed / duration_s;
  }
  Tally Total() const {
    Tally t;
    for (const ClientResult& c : clients) t.Add(c.tally);
    return t;
  }
  std::vector<double> Latencies() const {
    std::vector<double> all;
    for (const ClientResult& c : clients) {
      all.insert(all.end(), c.latency_ms.begin(), c.latency_ms.end());
    }
    return all;
  }
};

// Per-client engines (and QueryStats sinks when traced) over one shared
// governor for governed workloads.
struct Clients {
  std::vector<obs::QueryStats> stats;
  std::vector<std::unique_ptr<Engine>> engines;

  Clients(const Workload& w, sched::QueryGovernor* governor, bool traced)
      : stats(traced ? w.clients : 0) {
    for (int c = 0; c < w.clients; ++c) {
      ExecOptions opts;
      opts.threads = w.threads;
      opts.governor = governor;
      if (traced) opts.stats = &stats[static_cast<std::size_t>(c)];
      engines.push_back(std::make_unique<Engine>(opts));
    }
  }
};

Phase RunPhase(Clients& clients, const Workload& w, double seconds,
               std::vector<SpanRecorder>* recs,
               std::uint64_t trace_every = 1) {
  Phase phase;
  phase.clients.resize(static_cast<std::size_t>(w.clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) {
    const auto i = static_cast<std::size_t>(c);
    threads.emplace_back([&, c, i] {
      phase.clients[i] = RunClient(
          *clients.engines[i], w, c, deadline,
          clients.stats.empty() ? nullptr : &clients.stats[i],
          recs == nullptr ? nullptr : &(*recs)[i], trace_every);
    });
  }
  for (std::thread& t : threads) t.join();
  phase.duration_s = SecondsSince(start);
  return phase;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  /// For a percentile, the number of samples it was taken from.
  std::size_t samples = 0;
};

// Percentile `p` of `values` times `scale`, with its sample count.
Metric Pct(const char* name, const std::vector<double>& values, double p,
           double scale, const char* unit) {
  return Metric{name, Percentile(values, p) * scale, unit, values.size()};
}

struct Record {
  std::vector<Metric> metrics;
  Tally tally;
  double duration_s = 0;
  std::uint64_t samples = 0;
  std::map<std::string, SelfTime> self_times;
  /// Traced run: the span sampling stride of the traced phase, and the
  /// sampled statements a full recorder could not keep.
  std::uint64_t trace_every = 0;
  std::uint64_t trace_dropped = 0;
};

void EndToEnd(const Workload& w, Phase timed, Record* rec) {
  std::vector<double> lat = timed.Latencies();
  const Tally t = timed.Total();
  rec->duration_s = timed.duration_s;
  rec->samples = lat.size();
  rec->metrics = {
      {"setup_s", w.setup.setup_s, "s"},
      {"qps", timed.Qps(), "queries/s"},
      Pct("latency_p50_ms", lat, 0.50, 1, "ms"),
      Pct("latency_p99_ms", lat, 0.99, 1, "ms"),
      {"error_rate",
       Ratio(static_cast<double>(t.failed()),
             static_cast<double>(t.attempted)),
       "fraction"},
  };
  // The latency buffers grow with the statement count, so they are freed
  // first: rss_mb then counts what the table and the engines hold.
  timed = Phase();
  lat = std::vector<double>();
  rec->metrics.push_back({"rss_mb", RssMiB(), "MiB"});
}

// The io layer on the workload's own table: one io::WriteTable (which
// fsyncs) and one io::ReadTable (which re-packs every column, so it costs
// about as much as the set-up), through a file in the data directory that
// is removed afterwards.
struct IoTimes {
  double write_s = 0;
  double read_s = 0;
  double file_bytes = 0;
};

StatusOr<IoTimes> MeasureIo(const Workload& w, const std::string& path) {
  IoTimes io;
  Clock::time_point t0 = Clock::now();
  Status status = io::WriteTable(w.table, path);
  io.write_s = SecondsSince(t0);
  if (status.ok()) {
    t0 = Clock::now();
    StatusOr<Table> back = io::ReadTable(path);
    io.read_s = SecondsSince(t0);
    status = back.status();
    if (status.ok() && back->num_rows() != w.table.num_rows()) {
      status = Status::Internal("table read back with a different row count");
    }
  }
  std::error_code ec;
  io.file_bytes = static_cast<double>(std::filesystem::file_size(path, ec));
  std::filesystem::remove(path, ec);
  ICP_RETURN_IF_ERROR(status);
  return io;
}

// Per-layer metrics from the traced phase's QueryStats samples, the
// decomposed replay's spans, the parallel comparison, the io round trip
// and the set-up. Metrics of a layer the workload does not exercise read
// 0; the ones in a time unit among them stay out of BENCHMARK.json (see
// README.md).
void PerLayer(const Workload& w, double tsc_ghz, double qps_untraced,
              const Phase& traced, const ReplayTimes& replay,
              double speedup, const IoTimes& io, Record* rec) {
  const double ns_per_cycle = 1.0 / tsc_ghz;
  std::vector<double> parse_us, unattributed, agg_ms, combine_ms, admit_us;
  std::map<std::string, std::vector<double>> groupby_ms;
  double words = 0, rows = 0, stopped = 0, segments = 0, combine_words = 0;
  double total_cycles = 0, combine_cycles = 0, agg_ns = 0, agg_rows = 0;
  double agg_skipped = 0, agg_segments = 0, morsels = 0, steals = 0;
  double granted = 0, spilled = 0, local_hits = 0, grouped_rows = 0;
  double governed = 0, queued = 0, n = 0;
  for (const ClientResult& c : traced.clients) {
    for (const Sample& sample : c.samples) {
      const Statement& st = w.statements[sample.statement];
      const obs::QueryStats& qs = sample.stats;
      const auto parse_ns = static_cast<double>(sample.parse_ns);
      const double stage_agg_ns = static_cast<double>(qs.agg_cycles) *
                                  ns_per_cycle;
      ++n;
      parse_us.push_back(parse_ns / 1e3);
      // Parse runs before the engine call, so it counts on both sides.
      const double staged_ns =
          parse_ns + static_cast<double>(qs.StageCyclesSum()) * ns_per_cycle;
      const double total_ns =
          parse_ns + static_cast<double>(qs.total_cycles) * ns_per_cycle;
      unattributed.push_back(std::max(0.0, 1.0 - Ratio(staged_ns, total_ns)));
      words += static_cast<double>(qs.words_scanned);
      rows += static_cast<double>(qs.rows_total);
      stopped += static_cast<double>(qs.segments_early_stopped);
      segments += static_cast<double>(qs.segments_scanned);
      total_cycles += static_cast<double>(qs.total_cycles);
      combine_cycles += static_cast<double>(qs.combine_cycles);
      combine_words += static_cast<double>(qs.filter_words_combined);
      if (qs.combine_cycles > 0) {
        combine_ms.push_back(static_cast<double>(qs.combine_cycles) *
                             ns_per_cycle / 1e6);
      }
      agg_ms.push_back(stage_agg_ns / 1e6);
      agg_ns += stage_agg_ns;
      agg_rows += static_cast<double>(qs.rows_total) *
                  static_cast<double>(st.aggregates.size());
      if (w.governed) {
        ++governed;
        queued += qs.admit_queued_cycles > 0 ? 1 : 0;
        admit_us.push_back(static_cast<double>(qs.admit_queued_cycles) *
                           ns_per_cycle / 1e3);
      }
      morsels += static_cast<double>(qs.sched_morsels_dispatched);
      steals += static_cast<double>(qs.sched_steals);
      granted += qs.granted_parallelism;
      if (st.kind == StatementKind::kGroupBy) {
        groupby_ms[st.group_column].push_back(
            static_cast<double>(sample.exec_ns) / 1e6);
        spilled += static_cast<double>(qs.groupby_spilled_rows);
        local_hits += static_cast<double>(qs.groupby_local_hits);
        grouped_rows += static_cast<double>(qs.rows_passing);
      } else {
        agg_skipped += static_cast<double>(qs.agg_segments_skipped);
        for (const auto& [kind, column] : st.aggregates) {
          StatusOr<const Table::Column*> col = w.table.GetColumn(column);
          if (!col.ok()) continue;
          const auto vps =
              static_cast<std::size_t>((*col)->values_per_segment());
          agg_segments +=
              static_cast<double>((w.table.num_rows() + vps - 1) / vps);
        }
      }
    }
  }
  auto p50_of = [](const char* name,
                   const std::map<std::string, std::vector<double>>& by,
                   const char* key, double scale) {
    auto it = by.find(key);
    return it == by.end() ? Metric{name, 0.0, "ms"}
                          : Pct(name, it->second, 0.5, scale, "ms");
  };
  double memory_bytes = 0;
  for (const std::string& name : w.table.column_names()) {
    StatusOr<const Table::Column*> col = w.table.GetColumn(name);
    if (col.ok()) memory_bytes += static_cast<double>((*col)->MemoryBytes());
  }
  const double table_rows = static_cast<double>(w.table.num_rows());
  const double qps_traced = traced.Qps();
  rec->metrics = {
      Pct("parse.us_p50", parse_us, 0.5, 1, "us"),
      Pct("engine.unattributed_frac", unattributed, 0.5, 1, "fraction"),
      Pct("scan.ms_p50", replay.filter_ns, 0.5, 1e-6, "ms"),
      {"scan.ns_per_row",
       Ratio(Sum(replay.filter_ns),
             static_cast<double>(replay.filter_ns.size()) * table_rows),
       "ns"},
      {"scan.words_per_row", Ratio(words, rows), "count"},
      {"scan.early_stop_frac", Ratio(stopped, segments), "fraction"},
      {"combine.time_frac", Ratio(combine_cycles, total_cycles), "fraction"},
      {"combine.words_per_query", Ratio(combine_words, n), "count"},
      Pct("combine.ms_p50", combine_ms, 0.5, 1, "ms"),
      Pct("agg.ms_p50", agg_ms, 0.5, 1, "ms"),
      {"agg.ns_per_row", Ratio(agg_ns, agg_rows), "ns"},
      p50_of("agg.sum.ms_p50", replay.agg_ns_by_bucket, "sum", 1e-6),
      p50_of("agg.minmax.ms_p50", replay.agg_ns_by_bucket, "minmax", 1e-6),
      p50_of("agg.median.ms_p50", replay.agg_ns_by_bucket, "median", 1e-6),
      p50_of("agg.count.ms_p50", replay.agg_ns_by_bucket, "count", 1e-6),
      {"agg.skip_frac", Ratio(agg_skipped, agg_segments), "fraction"},
      {"parallel.speedup", speedup, "x"},
      {"parallel.efficiency", speedup / w.threads, "fraction"},
      {"sched.queued_frac", Ratio(queued, governed), "fraction"},
      Pct("sched.admit_us_p50", admit_us, 0.5, 1, "us"),
      Pct("sched.admit_us_p99", admit_us, 0.99, 1, "us"),
      {"sched.morsels_per_query", Ratio(morsels, n), "count"},
      {"sched.steals_per_query", Ratio(steals, n), "count"},
      {"sched.granted_parallelism_mean", Ratio(granted, n), "count"},
      p50_of("groupby.g4.ms_p50", groupby_ms, "g4", 1),
      p50_of("groupby.g12.ms_p50", groupby_ms, "g12", 1),
      p50_of("groupby.g16.ms_p50", groupby_ms, "g16", 1),
      {"groupby.spill_frac", Ratio(spilled, grouped_rows), "fraction"},
      {"groupby.local_hit_frac", Ratio(local_hits, grouped_rows), "fraction"},
      {"layout.pack_s", w.setup.pack_s, "s"},
      {"layout.bytes_per_row", Ratio(memory_bytes, table_rows), "B"},
      {"io.read_s", io.read_s, "s"},
      {"io.write_s", io.write_s, "s"},
      {"io.file_bytes_per_row", Ratio(io.file_bytes, table_rows), "B"},
      {"trace.overhead_pct",
       100.0 * Ratio(qps_untraced - qps_traced, qps_untraced), "%"},
  };
}

// ---------------------------------------------------------------------------
// Traced-mode extras.
// ---------------------------------------------------------------------------

// Sampled statements per client span recorder (3 spans each), and the
// replay recorder's size in spans.
constexpr std::size_t kTraceRoots = 1000;
constexpr std::size_t kReplaySpans = std::size_t{1} << 16;

// Decomposed replay: whole passes until at least 0.5 s have passed.
ReplayTimes Replay(Engine& engine, const Workload& w, SpanRecorder& rec,
                   Tally* tally) {
  ReplayTimes times;
  const Clock::time_point start = Clock::now();
  std::uint64_t seq = 0;
  do {
    for (const Statement& s : w.statements) {
      tally->Add(ReplayStatement(
          engine, w.table, s, rec,
          (static_cast<std::uint64_t>(rec.tid()) << 40) | seq++, &times));
    }
  } while (SecondsSince(start) < 0.5);
  return times;
}

// The same statements, one pass at a time, on an ungoverned 1-thread
// engine and an ungoverned N-thread engine, alternating, until each ran at
// least two passes and a second has passed; returns the ratio of median
// pass times.
double ParallelSpeedup(const Workload& w, Tally* tally) {
  ExecOptions opts;
  Engine one(opts);
  opts.threads = w.threads;
  Engine many(opts);
  auto pass = [&](Engine& engine) {
    const Clock::time_point start = Clock::now();
    for (const Statement& s : w.statements) {
      tally->Add(RunStatement(engine, w.table, s));
    }
    return SecondsSince(start);
  };
  std::vector<double> t1, tn;
  const Clock::time_point start = Clock::now();
  while (t1.size() < 2 || (SecondsSince(start) < 1.0 && t1.size() < 50)) {
    t1.push_back(pass(one));
    tn.push_back(pass(many));
  }
  return Ratio(Percentile(t1, 0.5), Percentile(tn, 0.5));
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  double seconds = 10;
  std::uint64_t seed = 1;
  std::string trace_path;
  /// 0 keeps the workload's own size; run.py --smoke passes 2^16.
  std::size_t rows = 0;
  std::string data_dir = ".";
};

void PrintRecord(const Args& args, const Workload& w, double tsc_ghz,
                 const Record& rec) {
  std::string out = "{\n";
  auto field = [&](const char* key, const std::string& value) {
    out += "  " + JsonString(key) + ": " + value + ",\n";
  };
  field("workload", JsonString(w.name));
  field("seed", std::to_string(args.seed));
  field("seconds", JsonNumber(args.seconds));
  field("traced", args.trace_path.empty() ? "false" : "true");
  field("rows", std::to_string(w.rows));
  field("statements", std::to_string(w.statements.size()));
  field("clients", std::to_string(w.clients));
  field("threads", std::to_string(w.threads));
  field("governed", w.governed ? "true" : "false");
  field("setup_reps", std::to_string(w.setup.setup_reps));
  std::string prov = "{";
  prov += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  prov += ", \"cpu_model\": " + JsonString(CpuModel());
  prov += ", \"kernel_tier\": " +
          JsonString(kern::TierName(kern::EffectiveTier(kern::ActiveTier())));
  prov += ", \"compiler\": " + JsonString(ICP_E2E_COMPILER);
  prov += ", \"flags\": " + JsonString(ICP_E2E_FLAGS);
  prov += ", \"icp_obs\": " + std::to_string(ICP_E2E_OBS);
  prov += ", \"tsc_ghz\": " + JsonNumber(tsc_ghz);
  prov += "}";
  field("provenance", prov);
  field("attempted", std::to_string(rec.tally.attempted));
  field("failed", std::to_string(rec.tally.failed()));
  field("errors", std::to_string(rec.tally.errors));
  field("shed", std::to_string(rec.tally.shed));
  field("wrong", std::to_string(rec.tally.wrong));
  field("duration_s", JsonNumber(rec.duration_s));
  field("samples", std::to_string(rec.samples));
  std::string self = "{";
  for (const auto& [name, t] : rec.self_times) {
    if (self.size() > 1) self += ", ";
    self += JsonString(name) + ": {\"spans\": " + std::to_string(t.spans) +
            ", \"total_ms\": " + JsonNumber(t.total_ns / 1e6) +
            ", \"self_ms\": " + JsonNumber(t.self_ns / 1e6) + "}";
  }
  field("self_time", self + "}");
  field("trace_sample_every", std::to_string(rec.trace_every));
  field("trace_dropped_statements", std::to_string(rec.trace_dropped));
  out += "  \"metrics\": {";
  for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
    const Metric& m = rec.metrics[i];
    out += (i == 0 ? "\n    " : ",\n    ") + JsonString(m.name) +
           ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (m.samples > 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  out += "\n  }\n}\n";
  std::fputs(out.c_str(), stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seconds" && flag != "--seed" &&
        flag != "--trace" && flag != "--rows" && flag != "--data-dir") {
      std::fprintf(stderr, "icp_e2e: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "icp_e2e: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") args->workload = v;
    if (flag == "--seconds") args->seconds = std::strtod(v, nullptr);
    if (flag == "--seed") args->seed = std::strtoull(v, nullptr, 10);
    if (flag == "--trace") args->trace_path = v;
    if (flag == "--rows") args->rows = std::strtoull(v, nullptr, 10);
    if (flag == "--data-dir") args->data_dir = v;
  }
  if (args->workload.empty() || !(args->seconds > 0) ||
      args->rows > (std::size_t{1} << 30)) {
    std::fprintf(stderr,
                 "usage: icp_e2e --workload NAME --seconds S --seed N "
                 "[--trace out.json] [--rows R] [--data-dir DIR]\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const double tsc_ghz = CalibrateTscGhz();
  // Set-up repetitions take at most about a quarter of the timed seconds
  // (but always at least three repetitions).
  StatusOr<Workload> made = MakeWorkload(args.workload, args.rows, args.seed,
                                         args.seconds / 4, args.data_dir);
  if (!made.ok()) {
    std::fprintf(stderr, "icp_e2e: %s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *made;

  // Declared before every engine that uses them, so destroyed after.
  std::unique_ptr<sched::MorselScheduler> scheduler;
  std::unique_ptr<sched::QueryGovernor> governor;
  if (w.governed) {
    scheduler = std::make_unique<sched::MorselScheduler>(
        std::max(0, static_cast<int>(std::thread::hardware_concurrency()) - 1));
    governor = std::make_unique<sched::QueryGovernor>(*scheduler, w.admission);
  }

  Record rec;
  Clients untraced(w, governor.get(), /*traced=*/false);
  rec.tally.Add(RunPhase(untraced, w, args.seconds / 10, nullptr).Total());
  if (args.trace_path.empty()) {
    Phase timed = RunPhase(untraced, w, args.seconds, nullptr);
    rec.tally.Add(timed.Total());
    EndToEnd(w, std::move(timed), &rec);
  } else {
    const Phase plain = RunPhase(untraced, w, args.seconds / 2, nullptr);
    rec.tally.Add(plain.Total());
    rec.duration_s = plain.duration_s;
    rec.samples = plain.Latencies().size();

    // Each client's recorder keeps about kTraceRoots sampled statements,
    // spread over the whole traced phase by a stride sized from the
    // untraced half's rate, with room for a phase twice as fast. The
    // replay's recorder (last) keeps every statement of its half second.
    const double per_client =
        plain.Qps() * (args.seconds / 2) / static_cast<double>(w.clients);
    rec.trace_every = 1 + static_cast<std::uint64_t>(
                              per_client / static_cast<double>(kTraceRoots));
    const std::int64_t epoch_ns = NowNs();
    std::vector<SpanRecorder> recs;
    for (int c = 0; c < w.clients; ++c) {
      recs.emplace_back(c + 1, 2 * 3 * kTraceRoots);
    }
    recs.emplace_back(w.clients + 1, kReplaySpans);
    Clients traced(w, governor.get(), /*traced=*/true);
    const Phase phase =
        RunPhase(traced, w, args.seconds / 2, &recs, rec.trace_every);
    rec.tally.Add(phase.Total());

    ExecOptions replay_opts;
    replay_opts.threads = w.threads;
    replay_opts.governor = governor.get();
    Engine replay_engine(replay_opts);
    const ReplayTimes replay =
        Replay(replay_engine, w, recs.back(), &rec.tally);
    const double speedup = ParallelSpeedup(w, &rec.tally);
    const StatusOr<IoTimes> io = MeasureIo(
        w, (std::filesystem::path(args.data_dir) /
            (w.name + "_" + std::to_string(args.seed) + "_io.icpt"))
               .string());
    if (!io.ok()) {
      std::fprintf(stderr, "icp_e2e: io round trip: %s\n",
                   io.status().ToString().c_str());
      return 2;
    }
    PerLayer(w, tsc_ghz, plain.Qps(), phase, replay, speedup, *io, &rec);
    rec.self_times = ComputeSelfTimes(recs);
    for (const SpanRecorder& r : recs) rec.trace_dropped += r.dropped();
    if (!WriteChromeTrace(args.trace_path, recs, epoch_ns)) {
      std::fprintf(stderr, "icp_e2e: cannot write %s\n",
                   args.trace_path.c_str());
      return 2;
    }
  }
  PrintRecord(args, w, tsc_ghz, rec);
  return rec.tally.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace icp::e2e

int main(int argc, char** argv) { return icp::e2e::Main(argc, argv); }
