// Per-query execution statistics, carried via engine::ExecOptions.
//
// The engine fills one of these per Execute() call from the scanners'
// ScanStats, the filter combines, the aggregators' AggStats and the
// kernel registry's effective tier; EXPLAIN ANALYZE renders it as the
// stage table. This is a plain struct on purpose: it has no registry or
// atomics behind it and keeps working in ICP_OBS=0 builds (only the
// process-wide counters compile out).

#ifndef ICP_OBS_QUERY_STATS_H_
#define ICP_OBS_QUERY_STATS_H_

#include <cstdint>

namespace icp::obs {

/// Statistics for one engine query execution. All fields are written by
/// exactly one thread (the engine merges per-worker partials before
/// storing), so there is no synchronization here.
struct QueryStats {
  // -- Stage cycle breakdown (obs::StageTimer clock). parse covers the
  // -- SQL text when the query came through ParseQuery; combine covers
  // -- the filter bit-vector boolean algebra between scan leaves.
  std::uint64_t parse_cycles = 0;
  std::uint64_t scan_cycles = 0;
  std::uint64_t combine_cycles = 0;
  std::uint64_t agg_cycles = 0;
  /// End-to-end Execute() cycles; >= the sum of the stages above (the
  /// remainder is predicate mapping, result assembly, etc.).
  std::uint64_t total_cycles = 0;

  // -- Filter / selectivity.
  std::uint64_t rows_total = 0;
  std::uint64_t rows_passing = 0;
  /// Segment words combined by filter boolean ops (AND/OR/...).
  std::uint64_t filter_words_combined = 0;

  // -- Scan work (from scan::ScanStats, summed over leaves/workers).
  std::uint64_t words_scanned = 0;
  std::uint64_t segments_scanned = 0;
  std::uint64_t segments_early_stopped = 0;
  /// Scan leaves whose word counts are analytic upper bounds (the SIMD
  /// lane kernels are not instrumented per-word; see
  /// docs/observability.md).
  std::uint64_t scan_leaves_modeled = 0;

  // -- Aggregate work (from core::AggStats).
  std::uint64_t agg_folds = 0;
  std::uint64_t agg_segments_skipped = 0;
  std::uint64_t agg_compare_early_stops = 0;
  std::uint64_t agg_blends_skipped = 0;

  // -- Robustness-layer activity during this query.
  std::uint64_t cancel_checks = 0;

  // -- Scheduler / admission activity (all zero when the query ran
  // -- without a governor; see ExecOptions::governor).
  std::uint64_t sched_morsels_dispatched = 0;
  std::uint64_t sched_morsels_completed = 0;
  std::uint64_t sched_morsels_cancelled = 0;
  std::uint64_t sched_steals = 0;
  /// Cycles spent queued at admission before the query was granted.
  std::uint64_t admit_queued_cycles = 0;
  /// Parallelism the governor granted (degradation ladder output);
  /// 0 when ungoverned.
  int granted_parallelism = 0;

  // -- Grouped aggregation (ExecuteGroupBy only; empty/zero otherwise).
  // -- strategy is "naive" or "single-pass"; the work counters mirror
  // -- groupby::Stats for the single-pass operator.
  const char* groupby_strategy = "";
  std::uint64_t groupby_groups = 0;
  std::uint64_t groupby_local_hits = 0;
  std::uint64_t groupby_spilled_rows = 0;
  std::uint64_t groupby_merge_entries = 0;
  std::uint64_t groupby_partitions = 0;
  std::uint64_t groupby_record_bytes = 0;

  // -- What ran. Static strings (tier names, layout names); never freed.
  const char* kernel_tier = "";
  const char* agg_path = "";
  const char* method = "";
  int threads = 1;
  bool simd = false;

  /// Fraction of rows passing the filter, in [0, 1]; 1 when the query
  /// had no filter (rows_passing == rows_total == table rows).
  double FilterDensity() const {
    if (rows_total == 0) return 0.0;
    return static_cast<double>(rows_passing) /
           static_cast<double>(rows_total);
  }

  /// Sum of the named stages' cycles, admission wait included (a queued
  /// governed query spends that time inside total_cycles); the EXPLAIN
  /// ANALYZE consistency test asserts this lands within [~0.5, 1.0] x
  /// total_cycles.
  std::uint64_t StageCyclesSum() const {
    return admit_queued_cycles + parse_cycles + scan_cycles +
           combine_cycles + agg_cycles;
  }
};

}  // namespace icp::obs

#endif  // ICP_OBS_QUERY_STATS_H_
