#include "engine/engine.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/hbp_aggregate.h"
#include "core/naive_aggregate.h"
#include "core/nbp_aggregate.h"
#include "core/padded_aggregate.h"
#include "core/vbp_aggregate.h"
#include "groupby/groupby.h"
#include "obs/histogram.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "obs/stage_timer.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "parallel/parallel_aggregate.h"
#include "parallel/parallel_nbp.h"
#include "scan/hbp_scanner.h"
#include "scan/naive_scanner.h"
#include "scan/padded_scanner.h"
#include "scan/vbp_scanner.h"
#include "sched/admission.h"
#include "simd/dispatch.h"
#include "simd/simd_parallel.h"

namespace icp {
namespace {

// A predicate mapped into the column's code domain, or a degenerate
// all-pass / none-pass answer.
struct CodePredicate {
  bool all = false;
  bool none = false;
  CompareOp op = CompareOp::kEq;
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
};

// Maps value-domain constants to code-domain constants with order-preserving
// semantics (handles constants outside or between encodable values).
CodePredicate MapPredicate(const ColumnEncoder& encoder, CompareOp op,
                           std::int64_t v1, std::int64_t v2) {
  CodePredicate out;
  out.op = op;
  std::uint64_t code = 0;
  switch (op) {
    case CompareOp::kEq:
      if (encoder.EncodeExact(v1, &code)) {
        out.c1 = code;
      } else {
        out.none = true;
      }
      return out;
    case CompareOp::kNe:
      if (encoder.EncodeExact(v1, &code)) {
        out.c1 = code;
      } else {
        out.all = true;
      }
      return out;
    case CompareOp::kGe:
      // v >= c  <=>  code >= first code whose value is >= c.
      if (encoder.EncodeLowerBound(v1, &code) == ConstantBound::kAboveDomain) {
        out.none = true;
      } else {
        out.c1 = code;
      }
      return out;
    case CompareOp::kLt:
      // v < c  <=>  code < first code whose value is >= c.
      if (encoder.EncodeLowerBound(v1, &code) == ConstantBound::kAboveDomain) {
        out.all = true;
      } else if (code == 0) {
        out.none = true;  // no code below the first one
      } else {
        out.c1 = code;
      }
      return out;
    case CompareOp::kLe:
      // v <= c  <=>  code <= last code whose value is <= c.
      if (encoder.EncodeUpperBound(v1, &code) == ConstantBound::kBelowDomain) {
        out.none = true;
      } else {
        out.c1 = code;
      }
      return out;
    case CompareOp::kGt:
      // v > c  <=>  code > last code whose value is <= c.
      if (encoder.EncodeUpperBound(v1, &code) == ConstantBound::kBelowDomain) {
        out.all = true;
      } else {
        out.c1 = code;
      }
      return out;
    case CompareOp::kBetween: {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      if (encoder.EncodeLowerBound(v1, &lo) == ConstantBound::kAboveDomain ||
          encoder.EncodeUpperBound(v2, &hi) == ConstantBound::kBelowDomain ||
          lo > hi) {
        out.none = true;
      } else {
        out.c1 = lo;
        out.c2 = hi;
      }
      return out;
    }
  }
  return out;
}

}  // namespace

Engine::Engine(ExecOptions options) : options_(options) {
  ICP_CHECK_GE(options_.threads, 1);
  pool_ = std::make_unique<ThreadPool>(options_.threads);
}

std::optional<std::chrono::steady_clock::time_point> Engine::AbsoluteDeadline()
    const {
  if (!options_.deadline.has_value()) return std::nullopt;
  return std::chrono::steady_clock::now() + *options_.deadline;
}

CancelContext Engine::MakeCancelContext() const {
  return CancelContext(options_.cancel_token, AbsoluteDeadline());
}

Status Engine::CheckPool() {
  if (pool_->TakeTaskFailure()) {
    return Status::Internal("a thread pool task failed to run");
  }
  return Status::Ok();
}

Status Engine::CheckSession() {
  if (session_ == nullptr) return Status::Ok();
  return session_->Error();
}

// Admission is per entry point: Enter blocks in the governor's bounded
// queue (or is shed) before any work runs; the destructor copies the
// session's scheduling stats into the query's QueryStats and releases the
// admission slot.
struct Engine::SessionScope {
  Engine* engine = nullptr;
  std::unique_ptr<sched::QuerySession> session;

  [[nodiscard]] Status Enter(
      Engine& e,
      std::optional<std::chrono::steady_clock::time_point> deadline) {
    if (e.options_.governor == nullptr) return Status::Ok();
    auto session_or = e.options_.governor->Admit(e.options_.cancel_token,
                                                 deadline);
    ICP_RETURN_IF_ERROR(session_or.status());
    session = std::move(session_or).value();
    engine = &e;
    e.session_ = session.get();
    return Status::Ok();
  }

  ~SessionScope() {
    if (engine == nullptr) return;
    // Per-query distribution samples for the governed run: steal counts
    // and scratch usage only make sense per session, so they record here
    // rather than at the (ungoverned) entry-point epilogue.
    ICP_OBS_HISTOGRAM_RECORD(QuerySteals, session->stats().steals);
    ICP_OBS_HISTOGRAM_RECORD(QueryScratchBytes, session->scratch_bytes());
    if (obs::QueryStats* qs = engine->options_.stats; qs != nullptr) {
      qs->granted_parallelism = session->granted_parallelism();
      qs->admit_queued_cycles = session->queued_cycles();
      qs->sched_morsels_dispatched = session->stats().dispatched;
      qs->sched_morsels_completed = session->stats().completed;
      qs->sched_morsels_cancelled = session->stats().cancelled;
      qs->sched_steals = session->stats().steals;
    }
    engine->session_ = nullptr;
  }
};

namespace {

// FALSE set of a tri-state filter: ~(pass | unknown).
FilterBitVector FalseSet(const Engine::TriState& t);

}  // namespace

StatusOr<Engine::TriState> Engine::ScanLeaf(const Table& table,
                                            const FilterExpr& leaf,
                                            const CancelContext* cancel) {
  obs::QueryStats* qs = options_.stats;
  const obs::StageTimer timer;
  ICP_OBS_TRACE_SPAN("execute.scan", 0);
  auto column_or = table.GetColumn(leaf.column());
  ICP_RETURN_IF_ERROR(column_or.status());
  const Table::Column& column = **column_or;
  const int vps = column.values_per_segment();

  TriState out;
  // IS NULL / IS NOT NULL are never UNKNOWN.
  if (leaf.kind() == FilterExpr::Kind::kIsNull ||
      leaf.kind() == FilterExpr::Kind::kIsNotNull) {
    out.unknown = FilterBitVector(table.num_rows(), vps);
    if (column.nullable()) {
      out.pass = column.validity();
      if (leaf.kind() == FilterExpr::Kind::kIsNull) out.pass.Not();
    } else {
      out.pass = FilterBitVector(table.num_rows(), vps);
      if (leaf.kind() == FilterExpr::Kind::kIsNotNull) out.pass.SetAll();
    }
    if (qs != nullptr) qs->scan_cycles += timer.ElapsedCycles();
    return out;
  }

  ScanStats sstats;
  ScanStats* sp = qs != nullptr ? &sstats : nullptr;
  bool modeled = false;
  const CodePredicate pred =
      MapPredicate(column.encoder(), leaf.op(), leaf.value(), leaf.value2());
  if (pred.all || pred.none) {
    out.pass = FilterBitVector(table.num_rows(), vps);
    if (pred.all) out.pass.SetAll();
  } else {
    const bool mt = options_.threads > 1;
    switch (column.spec().layout) {
      case Layout::kVbp:
        if (session_ != nullptr) {
          out.pass = par::Scan(*session_, column.vbp(), pred.op, pred.c1,
                               pred.c2, cancel, sp);
        } else if (options_.simd) {
          out.pass = mt ? simd::ScanVbp(*pool_, column.vbp_simd(), pred.op,
                                        pred.c1, pred.c2, sp)
                        : simd::ScanVbp(column.vbp_simd(), pred.op, pred.c1,
                                        pred.c2, sp);
          modeled = true;
        } else {
          out.pass = mt ? par::Scan(*pool_, column.vbp(), pred.op, pred.c1,
                                    pred.c2, cancel, sp)
                        : VbpScanner::Scan(column.vbp(), pred.op, pred.c1,
                                           pred.c2, sp, cancel);
        }
        break;
      case Layout::kHbp:
        if (session_ != nullptr) {
          out.pass = par::Scan(*session_, column.hbp(), pred.op, pred.c1,
                               pred.c2, cancel, sp);
        } else if (options_.simd) {
          out.pass = mt ? simd::ScanHbp(*pool_, column.hbp_simd(), pred.op,
                                        pred.c1, pred.c2, sp)
                        : simd::ScanHbp(column.hbp_simd(), pred.op, pred.c1,
                                        pred.c2, sp);
          modeled = true;
        } else {
          out.pass = mt ? par::Scan(*pool_, column.hbp(), pred.op, pred.c1,
                                    pred.c2, cancel, sp)
                        : HbpScanner::Scan(column.hbp(), pred.op, pred.c1,
                                           pred.c2, sp, cancel);
        }
        break;
      case Layout::kNaive:
        // The scalar baseline scanners are deliberately uninstrumented
        // (they are the thing the paper measures against, not the engine's
        // hot path); their leaves report zero scan work. They still take
        // the cancel context: before PR 9 a naive/padded leaf ran its
        // whole column uncancellable, so a cancelled query's latency was
        // bounded by the column, not by one cancel batch.
        out.pass = NaiveScanner::Scan(column.naive(), pred.op, pred.c1,
                                      pred.c2, kWordBits, cancel);
        break;
      case Layout::kPadded:
        out.pass = PaddedScanner::Scan(column.padded(), pred.op, pred.c1,
                                       pred.c2, cancel);
        break;
    }
  }

  // SQL comparison semantics: a NULL operand makes the predicate UNKNOWN,
  // never TRUE — even for the degenerate always-true constants.
  if (column.nullable()) {
    out.pass.And(column.validity());
    out.unknown = column.validity();
    out.unknown.Not();
  } else {
    out.unknown = FilterBitVector(table.num_rows(), vps);
  }
  if (qs != nullptr) {
    qs->words_scanned += sstats.words_examined;
    qs->segments_scanned += sstats.segments_processed;
    qs->segments_early_stopped += sstats.segments_early_stopped;
    if (modeled) ++qs->scan_leaves_modeled;
    qs->scan_cycles += timer.ElapsedCycles();
  }
  return out;
}

namespace {

FilterBitVector FalseSet(const Engine::TriState& t) {
  FilterBitVector f = t.pass;
  f.Or(t.unknown);
  f.Not();
  return f;
}

void AlignShape(const Engine::TriState& acc, Engine::TriState* child) {
  if (child->pass.values_per_segment() != acc.pass.values_per_segment()) {
    child->pass = child->pass.Reshape(acc.pass.values_per_segment());
    child->unknown = child->unknown.Reshape(acc.pass.values_per_segment());
  }
}

}  // namespace

StatusOr<Engine::TriState> Engine::EvalExpr(const Table& table,
                                            const FilterExpr& expr,
                                            const CancelContext* cancel) {
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  switch (expr.kind()) {
    case FilterExpr::Kind::kLeaf:
    case FilterExpr::Kind::kIsNull:
    case FilterExpr::Kind::kIsNotNull:
      return ScanLeaf(table, expr, cancel);
    case FilterExpr::Kind::kAnd:
    case FilterExpr::Kind::kOr: {
      if (expr.children().empty()) {
        return Status::InvalidArgument("AND/OR needs at least one child");
      }
      auto acc_or = EvalExpr(table, *expr.children()[0], cancel);
      ICP_RETURN_IF_ERROR(acc_or.status());
      TriState acc = std::move(acc_or).value();
      for (std::size_t i = 1; i < expr.children().size(); ++i) {
        auto child_or = EvalExpr(table, *expr.children()[i], cancel);
        ICP_RETURN_IF_ERROR(child_or.status());
        TriState child = std::move(child_or).value();
        AlignShape(acc, &child);
        const obs::StageTimer combine_timer;
        ICP_OBS_TRACE_SPAN("execute.combine", 0);
        if (expr.kind() == FilterExpr::Kind::kAnd) {
          // AND: FALSE dominates, then UNKNOWN.
          FilterBitVector false_set = FalseSet(acc);
          false_set.Or(FalseSet(child));
          acc.pass.And(child.pass);
          acc.unknown = acc.pass;
          acc.unknown.Or(false_set);
          acc.unknown.Not();
        } else {
          // OR: TRUE dominates, then UNKNOWN.
          FilterBitVector false_set = FalseSet(acc);
          false_set.And(FalseSet(child));
          acc.pass.Or(child.pass);
          acc.unknown = acc.pass;
          acc.unknown.Or(false_set);
          acc.unknown.Not();
        }
        if (obs::QueryStats* qs = options_.stats; qs != nullptr) {
          qs->combine_cycles += combine_timer.ElapsedCycles();
          // Each AND/OR step above runs 8 whole-vector word ops (two
          // FalseSets at 2 each, plus Or/And/Or/Not on the accumulator).
          qs->filter_words_combined +=
              8 * static_cast<std::uint64_t>(acc.pass.num_segments());
        }
      }
      return acc;
    }
    case FilterExpr::Kind::kNot: {
      auto child_or = EvalExpr(table, *expr.children()[0], cancel);
      ICP_RETURN_IF_ERROR(child_or.status());
      TriState child = std::move(child_or).value();
      // NOT TRUE = FALSE, NOT FALSE = TRUE, NOT UNKNOWN = UNKNOWN.
      const obs::StageTimer combine_timer;
      ICP_OBS_TRACE_SPAN("execute.combine", 0);
      FilterBitVector new_pass = FalseSet(child);
      child.pass = std::move(new_pass);
      if (obs::QueryStats* qs = options_.stats; qs != nullptr) {
        qs->combine_cycles += combine_timer.ElapsedCycles();
        // FalseSet is 2 whole-vector word ops (Or + Not).
        qs->filter_words_combined +=
            2 * static_cast<std::uint64_t>(child.pass.num_segments());
      }
      return child;
    }
  }
  return Status::Internal("unknown expression kind");
}

StatusOr<FilterBitVector> Engine::EvaluateFilter(
    const Table& table, const FilterExprPtr& filter,
    const std::string& shape_column, std::uint64_t* scan_cycles) {
  const CancelContext cancel = MakeCancelContext();
  return EvaluateFilterImpl(table, filter, shape_column, scan_cycles,
                            &cancel);
}

StatusOr<FilterBitVector> Engine::EvaluateFilterImpl(
    const Table& table, const FilterExprPtr& filter,
    const std::string& shape_column, std::uint64_t* scan_cycles,
    const CancelContext* cancel) {
  auto column_or = table.GetColumn(shape_column);
  ICP_RETURN_IF_ERROR(column_or.status());
  const Table::Column& column = **column_or;

  const obs::StageTimer timer;
  FilterBitVector f;
  if (filter == nullptr) {
    f = FilterBitVector(table.num_rows(), column.values_per_segment());
    f.SetAll();
  } else {
    auto result = EvalExpr(table, *filter, cancel);
    if (scan_cycles != nullptr) *scan_cycles = timer.ElapsedCycles();
    ICP_RETURN_IF_ERROR(result.status());
    f = std::move(std::move(result).value().pass);
  }
  if (scan_cycles != nullptr) *scan_cycles = timer.ElapsedCycles();
  ICP_RETURN_IF_ERROR(CheckPool());
  ICP_RETURN_IF_ERROR(CheckSession());
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  if (f.values_per_segment() != column.values_per_segment()) {
    f = f.Reshape(column.values_per_segment());
  }
  if (obs::QueryStats* qs = options_.stats; qs != nullptr) {
    // One extra popcount pass over the filter — the only stats-only work
    // whose cost scales with the data.
    qs->rows_total = table.num_rows();
    qs->rows_passing = f.CountOnes();
    ICP_OBS_ADD(FilterRowsScanned, qs->rows_total);
    ICP_OBS_ADD(FilterRowsPassing, qs->rows_passing);
  }
  return f;
}

StatusOr<QueryResult> Engine::Aggregate(const Table& table, AggKind kind,
                                        const std::string& column_name,
                                        const FilterBitVector& filter,
                                        std::uint64_t rank) {
  const CancelContext cancel = MakeCancelContext();
  return AggregateImpl(table, kind, column_name, filter, rank, &cancel);
}

StatusOr<QueryResult> Engine::AggregateImpl(const Table& table, AggKind kind,
                                            const std::string& column_name,
                                            const FilterBitVector& filter,
                                            std::uint64_t rank,
                                            const CancelContext* cancel) {
  auto column_or = table.GetColumn(column_name);
  ICP_RETURN_IF_ERROR(column_or.status());
  const Table::Column& column = **column_or;
  if (filter.values_per_segment() != column.values_per_segment()) {
    return Status::FailedPrecondition(
        "filter shape does not match column layout; use EvaluateFilter with "
        "this column as shape_column");
  }
  if ((kind == AggKind::kSum || kind == AggKind::kAvg) &&
      column.encoder().is_dictionary()) {
    return Status::InvalidArgument(
        "SUM/AVG cannot be decoded for a dictionary-encoded column");
  }

  // SQL aggregates ignore NULLs: intersect with the column's validity.
  FilterBitVector non_null_filter;
  const FilterBitVector* effective = &filter;
  if (column.nullable()) {
    non_null_filter = filter;
    non_null_filter.And(column.validity());
    effective = &non_null_filter;
  }

  const bool mt = options_.threads > 1;
  const bool bp = options_.method == AggMethod::kBitParallel;
  obs::QueryStats* qs = options_.stats;
  AggStats astats;
  AggStats* ap = qs != nullptr ? &astats : nullptr;
  AggregateResult agg;
  const obs::StageTimer agg_timer;
  ICP_OBS_TRACE_SPAN("execute.aggregate", 0);
  switch (column.spec().layout) {
    case Layout::kVbp:
      if (bp && session_ != nullptr) {
        agg = par::Aggregate(*session_, column.vbp(), *effective, kind, rank,
                             cancel, ap);
      } else if (bp && options_.simd) {
        agg = mt ? simd::AggregateVbp(*pool_, column.vbp_simd(), *effective,
                                      kind, rank, cancel, ap)
                 : simd::AggregateVbp(column.vbp_simd(), *effective, kind,
                                      rank, cancel, ap);
      } else if (bp) {
        agg = mt ? par::Aggregate(*pool_, column.vbp(), *effective, kind,
                                  rank, cancel, ap)
                 : vbp::Aggregate(column.vbp(), *effective, kind, rank,
                                  cancel, ap);
      } else {
        agg = mt ? par_nbp::Aggregate(*pool_, column.vbp(), *effective, kind,
                                      rank, cancel, ap)
                 : nbp::Aggregate(column.vbp(), *effective, kind, rank,
                                  cancel, ap);
      }
      break;
    case Layout::kHbp:
      if (bp && session_ != nullptr) {
        agg = par::Aggregate(*session_, column.hbp(), *effective, kind, rank,
                             cancel, ap);
      } else if (bp && options_.simd) {
        agg = mt ? simd::AggregateHbp(*pool_, column.hbp_simd(), *effective,
                                      kind, rank, cancel, ap)
                 : simd::AggregateHbp(column.hbp_simd(), *effective, kind,
                                      rank, cancel, ap);
      } else if (bp) {
        agg = mt ? par::Aggregate(*pool_, column.hbp(), *effective, kind,
                                  rank, cancel, ap)
                 : hbp::Aggregate(column.hbp(), *effective, kind, rank,
                                  cancel, ap);
      } else {
        agg = mt ? par_nbp::Aggregate(*pool_, column.hbp(), *effective, kind,
                                      rank, cancel, ap)
                 : nbp::Aggregate(column.hbp(), *effective, kind, rank,
                                  cancel, ap);
      }
      break;
    case Layout::kNaive:
      agg = naive::Aggregate(column.naive(), *effective, kind, rank, cancel,
                             ap);
      break;
    case Layout::kPadded:
      agg = padded::Aggregate(column.padded(), *effective, kind, rank,
                              cancel, ap);
      break;
  }
  const std::uint64_t agg_cycles = agg_timer.ElapsedCycles();
  ICP_RETURN_IF_ERROR(CheckPool());
  ICP_RETURN_IF_ERROR(CheckSession());
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  if (qs != nullptr) {
    qs->agg_cycles += agg_cycles;
    qs->agg_folds += astats.folds;
    qs->agg_segments_skipped += astats.segments_skipped;
    qs->agg_compare_early_stops += astats.compare_early_stops;
    qs->agg_blends_skipped += astats.blends_skipped;
    qs->method = AggMethodToString(options_.method);
    qs->threads = options_.threads;
    qs->simd = options_.simd;
    qs->kernel_tier = kern::TierName(kern::EffectiveTier(kern::ActiveTier()));
    switch (column.spec().layout) {
      case Layout::kVbp:
        qs->agg_path = bp ? "vbp" : "nbp";
        break;
      case Layout::kHbp:
        qs->agg_path = bp ? "hbp" : "nbp";
        break;
      case Layout::kNaive:
        qs->agg_path = "naive";
        break;
      case Layout::kPadded:
        qs->agg_path = "padded";
        break;
    }
  }

  QueryResult result;
  result.kind = kind;
  result.count = agg.count;
  result.code_sum = agg.sum;
  result.code_value = agg.value;
  result.agg_cycles = agg_cycles;

  const ColumnEncoder& encoder = column.encoder();
  switch (kind) {
    case AggKind::kCount:
      result.value = static_cast<double>(agg.count);
      break;
    case AggKind::kSum:
      result.value = static_cast<double>(encoder.min_value()) *
                         static_cast<double>(agg.count) +
                     UInt128ToDouble(agg.sum);
      break;
    case AggKind::kAvg:
      if (agg.count > 0) {
        result.value = static_cast<double>(encoder.min_value()) +
                       UInt128ToDouble(agg.sum) /
                           static_cast<double>(agg.count);
      }
      break;
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kMedian:
    case AggKind::kRank:
      if (agg.value.has_value()) {
        result.decoded_value = encoder.Decode(*agg.value);
        result.value = static_cast<double>(*result.decoded_value);
      }
      break;
  }
  return result;
}

StatusOr<std::vector<QueryResult>> Engine::ExecuteMultiInternal(
    const Table& table, const MultiQuery& query) {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("MultiQuery needs at least one aggregate");
  }
  obs::QueryStats* qs = options_.stats;
  if (qs != nullptr) *qs = obs::QueryStats{};
  const obs::StageTimer total;
  ICP_OBS_INCREMENT(EngineQueries);
  const auto deadline = AbsoluteDeadline();
  SessionScope scope;
  ICP_RETURN_IF_ERROR(scope.Enter(*this, deadline));
  const CancelContext cancel(options_.cancel_token, deadline);
  std::uint64_t scan_cycles = 0;
  auto filter_or = EvaluateFilterImpl(table, query.filter,
                                      query.aggregates[0].second,
                                      &scan_cycles, &cancel);
  ICP_RETURN_IF_ERROR(filter_or.status());
  const FilterBitVector& filter = *filter_or;

  std::vector<QueryResult> results;
  results.reserve(query.aggregates.size());
  for (const auto& [kind, column_name] : query.aggregates) {
    if (cancel.ShouldStop()) return cancel.ToStatus();
    auto column_or = table.GetColumn(column_name);
    ICP_RETURN_IF_ERROR(column_or.status());
    const int vps = (*column_or)->values_per_segment();
    StatusOr<QueryResult> r =
        vps == filter.values_per_segment()
            ? AggregateImpl(table, kind, column_name, filter, 0, &cancel)
            : AggregateImpl(table, kind, column_name, filter.Reshape(vps), 0,
                            &cancel);
    ICP_RETURN_IF_ERROR(r.status());
    QueryResult result = std::move(r).value();
    result.scan_cycles = scan_cycles;
    results.push_back(std::move(result));
  }
  if (qs != nullptr) {
    qs->cancel_checks = cancel.checks();
    qs->total_cycles = total.ElapsedCycles();
  }
  return results;
}

namespace {

// Aggregates the single-pass operator can fold into one accumulator pass;
// MEDIAN/RANK need the full per-group filter and always run naive.
bool SupportsSinglePassGroupBy(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kMin:
    case AggKind::kMax:
      return true;
    case AggKind::kMedian:
    case AggKind::kRank:
      return false;
  }
  return false;
}

// Default cardinality at which ExecuteGroupBy switches from the naive
// per-code strategy to the single-pass operator. bench_groupby measured
// no crossover: the single-pass operator wins at every cardinality from
// 1 group (1.1-1.2x) to 2^12 (213-266x) and beyond, so decomposable
// aggregates default to single-pass unconditionally (see EXPERIMENTS.md
// / docs/groupby.md; MEDIAN/RANK always run naive regardless).
constexpr std::uint64_t kDefaultGroupByThreshold = 1;

}  // namespace

StatusOr<std::vector<std::pair<std::int64_t, QueryResult>>>
Engine::ExecuteGroupByInternal(const Table& table, const Query& query,
                               const std::string& group_column) {
  auto group_or = table.GetColumn(group_column);
  ICP_RETURN_IF_ERROR(group_or.status());
  const Table::Column& group = **group_or;
  if (!group.encoder().is_dictionary()) {
    return Status::InvalidArgument(
        "group-by column '" + group_column +
        "' must be dictionary-encoded (low cardinality)");
  }
  // Group-invariant validation is hoisted out of the per-group work: the
  // agg column lookup and the SUM/AVG decodability check apply to every
  // group identically, so both strategies fail fast the same way (even
  // when all groups turn out empty).
  auto agg_or = table.GetColumn(query.agg_column);
  ICP_RETURN_IF_ERROR(agg_or.status());
  const Table::Column& agg = **agg_or;
  if ((query.agg == AggKind::kSum || query.agg == AggKind::kAvg) &&
      agg.encoder().is_dictionary()) {
    return Status::InvalidArgument(
        "SUM/AVG cannot be decoded for dictionary-encoded column '" +
        query.agg_column + "'");
  }

  obs::QueryStats* qs = options_.stats;
  if (qs != nullptr) *qs = obs::QueryStats{};
  const obs::StageTimer total;
  ICP_OBS_INCREMENT(EngineQueries);
  const auto deadline = AbsoluteDeadline();
  SessionScope scope;
  ICP_RETURN_IF_ERROR(scope.Enter(*this, deadline));
  const CancelContext cancel(options_.cancel_token, deadline);
  std::uint64_t scan_cycles = 0;
  auto base_or = EvaluateFilterImpl(table, query.filter, group_column,
                                    &scan_cycles, &cancel);
  ICP_RETURN_IF_ERROR(base_or.status());

  const std::uint64_t threshold = options_.groupby_threshold != 0
                                      ? options_.groupby_threshold
                                      : kDefaultGroupByThreshold;
  const bool single_pass = SupportsSinglePassGroupBy(query.agg) &&
                           group.encoder().num_codes() >= threshold;
  auto results_or =
      single_pass ? SinglePassGroupBy(table, query, group, agg, *base_or,
                                      scan_cycles, cancel)
                  : NaiveGroupBy(table, query, group, agg, *base_or,
                                 scan_cycles, cancel);
  ICP_RETURN_IF_ERROR(results_or.status());
  if (single_pass) {
    ICP_OBS_INCREMENT(GroupByQueriesSinglePass);
  } else {
    ICP_OBS_INCREMENT(GroupByQueriesNaive);
  }
  if (qs != nullptr) {
    qs->groupby_strategy = single_pass ? "single-pass" : "naive";
    qs->groupby_groups = results_or->size();
    qs->cancel_checks = cancel.checks();
    qs->total_cycles = total.ElapsedCycles();
  }
  return results_or;
}

StatusOr<std::vector<std::pair<std::int64_t, QueryResult>>>
Engine::NaiveGroupBy(const Table& table, const Query& query,
                     const Table::Column& group, const Table::Column& agg,
                     const FilterBitVector& base, std::uint64_t scan_cycles,
                     const CancelContext& cancel) {
  obs::QueryStats* qs = options_.stats;
  const std::uint64_t num_groups = group.encoder().num_codes();
  const int group_vps = group.values_per_segment();
  const int agg_vps = agg.values_per_segment();
  std::vector<std::pair<std::int64_t, QueryResult>> results;
  // Per-code bit vectors come from one chunked scatter pass over the
  // group codes (decoded from the packing a segment at a time) instead of
  // one bit-parallel scan per group: total filter construction work is
  // O(table x ceil(groups/64) + groups) rather than the old
  // O(table x groups), and the scan-work counters only reflect the base
  // filter's scans.
  constexpr std::uint64_t kChunk = 64;
  for (std::uint64_t chunk_begin = 0; chunk_begin < num_groups;
       chunk_begin += kChunk) {
    if (cancel.ShouldStop()) return cancel.ToStatus();
    const std::uint64_t chunk_end =
        std::min(num_groups, chunk_begin + kChunk);
    const obs::StageTimer scatter_timer;
    std::vector<FilterBitVector> fs;
    fs.reserve(chunk_end - chunk_begin);
    for (std::uint64_t c = chunk_begin; c < chunk_end; ++c) {
      fs.emplace_back(table.num_rows(), group_vps);
    }
    std::uint64_t codes[kWordBits];
    for (std::size_t row0 = 0; row0 < table.num_rows(); row0 += kWordBits) {
      const std::size_t rows =
          std::min<std::size_t>(kWordBits, table.num_rows() - row0);
      group.DecodeCodes(row0, rows, codes);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t c = codes[r];
        if (c < chunk_begin || c >= chunk_end) continue;
        const std::size_t i = row0 + r;
        // NULL group rows carry code 0 but belong to no group.
        if (group.nullable() && !group.validity().GetBit(i)) continue;
        fs[c - chunk_begin].SetBit(i, true);
      }
    }
    for (FilterBitVector& f : fs) f.And(base);
    if (qs != nullptr) {
      qs->combine_cycles += scatter_timer.ElapsedCycles();
      qs->filter_words_combined +=
          (chunk_end - chunk_begin) *
          static_cast<std::uint64_t>(base.num_segments());
    }
    for (std::uint64_t c = chunk_begin; c < chunk_end; ++c) {
      if (cancel.ShouldStop()) return cancel.ToStatus();
      FilterBitVector& f = fs[c - chunk_begin];
      if (f.CountOnes() == 0) continue;
      if (group_vps != agg_vps) f = f.Reshape(agg_vps);
      auto r_or =
          AggregateImpl(table, query.agg, query.agg_column, f, 0, &cancel);
      ICP_RETURN_IF_ERROR(r_or.status());
      QueryResult r = std::move(r_or).value();
      r.scan_cycles = scan_cycles;
      results.emplace_back(group.encoder().Decode(c), std::move(r));
    }
  }
  return results;
}

StatusOr<std::vector<std::pair<std::int64_t, QueryResult>>>
Engine::SinglePassGroupBy(const Table& table, const Query& query,
                          const Table::Column& group,
                          const Table::Column& agg,
                          const FilterBitVector& base,
                          std::uint64_t scan_cycles,
                          const CancelContext& cancel) {
  obs::QueryStats* qs = options_.stats;

  // NULL group rows belong to no group: intersect once up front (base is
  // already shaped for the group column), copying base only to do so.
  FilterBitVector masked;
  if (group.nullable()) {
    masked = base;
    masked.And(group.validity());
  }

  groupby::Input in;
  in.group_codes = groupby::CodeReader::Of(group);
  in.num_codes = group.encoder().num_codes();
  if (query.agg != AggKind::kCount) {
    in.agg_codes = groupby::CodeReader::Of(agg);
    in.agg_bits = agg.bit_width();
  }
  in.filter = group.nullable() ? &masked : &base;
  if (agg.nullable()) in.agg_validity = &agg.validity();
  in.num_rows = table.num_rows();

  groupby::Options gopts;
  gopts.kind = query.agg;
  gopts.local_table_bytes = options_.groupby_local_bytes != 0
                                ? options_.groupby_local_bytes
                                : std::size_t{1} << 20;

  groupby::Stats gstats;
  const obs::StageTimer agg_timer;
  auto groups_or = [&] {
    if (session_ != nullptr) {
      return groupby::Execute(in, gopts, *session_, &cancel, &gstats);
    }
    StaticPoolExecutor ex(*pool_);
    return groupby::Execute(in, gopts, ex, &cancel, &gstats);
  }();
  const std::uint64_t agg_cycles = agg_timer.ElapsedCycles();
  ICP_RETURN_IF_ERROR(CheckPool());
  ICP_RETURN_IF_ERROR(CheckSession());
  ICP_RETURN_IF_ERROR(groups_or.status());

  const ColumnEncoder& encoder = agg.encoder();
  std::vector<std::pair<std::int64_t, QueryResult>> results;
  results.reserve(groups_or->size());
  for (const groupby::Group& g : *groups_or) {
    QueryResult r;
    r.kind = query.agg;
    r.count = g.count;
    r.scan_cycles = scan_cycles;
    r.agg_cycles = agg_cycles;
    switch (query.agg) {
      case AggKind::kCount:
        r.value = static_cast<double>(g.count);
        break;
      case AggKind::kSum:
        r.code_sum = g.value;
        r.value = static_cast<double>(encoder.min_value()) *
                      static_cast<double>(g.count) +
                  UInt128ToDouble(g.value);
        break;
      case AggKind::kAvg:
        r.code_sum = g.value;
        if (g.count > 0) {
          r.value = static_cast<double>(encoder.min_value()) +
                    UInt128ToDouble(g.value) / static_cast<double>(g.count);
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        if (g.count > 0) {
          const auto v = static_cast<std::uint64_t>(g.value);
          r.code_value = v;
          r.decoded_value = encoder.Decode(v);
          r.value = static_cast<double>(*r.decoded_value);
        }
        break;
      default:
        return Status::Internal("aggregate not supported single-pass");
    }
    results.emplace_back(group.encoder().Decode(g.code), std::move(r));
  }

  if (qs != nullptr) {
    qs->agg_cycles += agg_cycles;
    qs->groupby_local_hits = gstats.local_hits;
    qs->groupby_spilled_rows = gstats.spilled_rows;
    qs->groupby_merge_entries = gstats.merge_entries;
    qs->groupby_partitions = gstats.partitions;
    qs->groupby_record_bytes = gstats.record_bytes;
    qs->method = AggMethodToString(options_.method);
    qs->threads = options_.threads;
    qs->simd = options_.simd;
    qs->kernel_tier = kern::TierName(kern::EffectiveTier(kern::ActiveTier()));
    qs->agg_path = gstats.hashed ? "groupby-hash" : "groupby-direct";
  }
  return results;
}

StatusOr<QueryResult> Engine::ExecuteInternal(const Table& table,
                                              const Query& query) {
  obs::QueryStats* qs = options_.stats;
  if (qs != nullptr) *qs = obs::QueryStats{};
  const obs::StageTimer total;
  ICP_OBS_INCREMENT(EngineQueries);
  // Admission (and, while queued, shedding) happens before any work; the
  // queue wait shares the query's absolute deadline with every phase.
  const auto deadline = AbsoluteDeadline();
  SessionScope scope;
  ICP_RETURN_IF_ERROR(scope.Enter(*this, deadline));
  const CancelContext cancel(options_.cancel_token, deadline);
  std::uint64_t scan_cycles = 0;
  auto filter_or = EvaluateFilterImpl(table, query.filter, query.agg_column,
                                      &scan_cycles, &cancel);
  ICP_RETURN_IF_ERROR(filter_or.status());
  auto result_or = AggregateImpl(table, query.agg, query.agg_column,
                                 *filter_or, query.rank, &cancel);
  ICP_RETURN_IF_ERROR(result_or.status());
  QueryResult result = std::move(result_or).value();
  result.scan_cycles = scan_cycles;
  if (qs != nullptr) {
    qs->cancel_checks = cancel.checks();
    qs->total_cycles = total.ElapsedCycles();
  }
  return result;
}

namespace {

// FNV-1a over the query shape: the engine never sees SQL text, so the
// journal's "statement hash" fingerprints the parsed structure instead —
// identical statements collide (by design; that is what makes the
// fingerprint useful for spotting repeat offenders in /queries).
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t HashU64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t HashString(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return HashU64(h, s.size());
}

std::uint64_t HashFilter(std::uint64_t h, const FilterExprPtr& filter) {
  if (filter == nullptr) return HashU64(h, 0);
  h = HashU64(h, static_cast<std::uint64_t>(filter->kind()) + 1);
  h = HashString(h, filter->column());
  h = HashU64(h, static_cast<std::uint64_t>(filter->op()));
  h = HashU64(h, static_cast<std::uint64_t>(filter->value()));
  h = HashU64(h, static_cast<std::uint64_t>(filter->value2()));
  for (const FilterExprPtr& child : filter->children()) {
    h = HashFilter(h, child);
  }
  return h;
}

std::uint64_t FingerprintQuery(const Query& query) {
  std::uint64_t h = kFnvOffset;
  h = HashU64(h, static_cast<std::uint64_t>(query.agg));
  h = HashString(h, query.agg_column);
  h = HashU64(h, query.rank);
  return HashFilter(h, query.filter);
}

std::uint64_t FingerprintMultiQuery(const MultiQuery& query) {
  std::uint64_t h = kFnvOffset;
  for (const auto& [kind, column] : query.aggregates) {
    h = HashU64(h, static_cast<std::uint64_t>(kind));
    h = HashString(h, column);
  }
  return HashFilter(h, query.filter);
}

}  // namespace

void Engine::FinishQuery(const char* entry, std::uint64_t fingerprint,
                         const obs::StageTimer& timer,
                         std::uint64_t start_unix_ns, const Status& status,
                         std::uint64_t rows) {
  const std::uint64_t total_cycles = timer.ElapsedCycles();
  ICP_OBS_HISTOGRAM_RECORD(QueryLatencyCycles, total_cycles);
  obs::QueryRecord record;
  record.fingerprint = fingerprint;
  record.entry = entry;
  record.status = StatusCodeToString(status.code());
  record.rows = rows;
  record.total_cycles = total_cycles;
  record.start_cycles = timer.start_cycles();
  record.start_unix_ns = start_unix_ns;
  record.end_unix_ns = obs::JournalNow();
  if (const obs::QueryStats* qs = options_.stats; qs != nullptr) {
    record.tier = qs->kernel_tier;
    record.agg_path = qs->agg_path;
    record.scan_cycles = qs->scan_cycles;
    record.agg_cycles = qs->agg_cycles;
    // Stage distributions only exist when a stats sink collected the
    // breakdown, and only for completed queries (an error's partial
    // stage cycles would skew the low buckets).
    if (status.ok()) {
      ICP_OBS_HISTOGRAM_RECORD(StageScanCycles, qs->scan_cycles);
      ICP_OBS_HISTOGRAM_RECORD(StageCombineCycles, qs->combine_cycles);
      ICP_OBS_HISTOGRAM_RECORD(StageAggregateCycles, qs->agg_cycles);
    }
  }
  obs::RecordQuery(record);
}

StatusOr<QueryResult> Engine::Execute(const Table& table,
                                      const Query& query) {
  const std::uint64_t start_unix_ns = obs::JournalNow();
  const obs::StageTimer timer;
  auto result_or = ExecuteInternal(table, query);
  FinishQuery("execute", FingerprintQuery(query), timer, start_unix_ns,
              result_or.status(), result_or.ok() ? result_or->count : 0);
  return result_or;
}

StatusOr<std::vector<QueryResult>> Engine::ExecuteMulti(
    const Table& table, const MultiQuery& query) {
  const std::uint64_t start_unix_ns = obs::JournalNow();
  const obs::StageTimer timer;
  auto results_or = ExecuteMultiInternal(table, query);
  FinishQuery("execute_multi", FingerprintMultiQuery(query), timer,
              start_unix_ns, results_or.status(),
              results_or.ok() ? results_or->size() : 0);
  return results_or;
}

StatusOr<std::vector<std::pair<std::int64_t, QueryResult>>>
Engine::ExecuteGroupBy(const Table& table, const Query& query,
                       const std::string& group_column) {
  const std::uint64_t start_unix_ns = obs::JournalNow();
  const obs::StageTimer timer;
  auto groups_or = ExecuteGroupByInternal(table, query, group_column);
  std::uint64_t fingerprint = FingerprintQuery(query);
  fingerprint = HashString(fingerprint, group_column);
  FinishQuery("execute_groupby", fingerprint, timer, start_unix_ns,
              groups_or.status(), groups_or.ok() ? groups_or->size() : 0);
  return groups_or;
}

StatusOr<std::string> Engine::ExplainAnalyze(const Table& table,
                                             const Query& query,
                                             std::uint64_t parse_cycles) {
  obs::QueryStats local;
  obs::QueryStats* saved = options_.stats;
  options_.stats = &local;
  auto result_or = Execute(table, query);
  options_.stats = saved;
  ICP_RETURN_IF_ERROR(result_or.status());
  // Fold the caller-measured parse stage into both the breakdown and the
  // total so StageCyclesSum() <= total_cycles stays true.
  local.parse_cycles = parse_cycles;
  local.total_cycles += parse_cycles;
  if (parse_cycles > 0) {
    ICP_OBS_HISTOGRAM_RECORD(StageParseCycles, parse_cycles);
  }
  if (saved != nullptr) *saved = local;
  return FormatExplainAnalyze(local, *result_or);
}

namespace {

// printf-append onto a std::string; 192 bytes covers the widest EXPLAIN
// ANALYZE line (two 20-digit counters plus labels) with slack.
void AppendF(std::string* out, const char* fmt, ...) {
  char buf[192];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf);
}

void AppendStageRow(std::string* out, const char* name, std::uint64_t cycles,
                    std::uint64_t total) {
  const double pct =
      total == 0 ? 0.0
                 : 100.0 * static_cast<double>(cycles) /
                       static_cast<double>(total);
  AppendF(out, "  %-10s %14llu  %5.1f%%\n", name,
          static_cast<unsigned long long>(cycles), pct);
}

}  // namespace

std::string FormatExplainAnalyze(const obs::QueryStats& stats,
                                 const QueryResult& result) {
  std::string out;
  out += "EXPLAIN ANALYZE\n";
  AppendF(&out, "result: %s = %.6g  (count=%llu, density=%.2f%%)\n",
          AggKindToString(result.kind), result.value,
          static_cast<unsigned long long>(result.count),
          100.0 * stats.FilterDensity());
  AppendF(&out, "plan:   method=%s path=%s tier=%s threads=%d simd=%s\n",
          stats.method, stats.agg_path, stats.kernel_tier, stats.threads,
          stats.simd ? "on" : "off");
  out += "stage              cycles   %-of-total\n";
  AppendStageRow(&out, "admit", stats.admit_queued_cycles,
                 stats.total_cycles);
  AppendStageRow(&out, "parse", stats.parse_cycles, stats.total_cycles);
  AppendStageRow(&out, "scan", stats.scan_cycles, stats.total_cycles);
  AppendStageRow(&out, "combine", stats.combine_cycles, stats.total_cycles);
  AppendStageRow(&out, "aggregate", stats.agg_cycles, stats.total_cycles);
  const std::uint64_t accounted = stats.StageCyclesSum();
  AppendStageRow(&out, "(other)",
                 stats.total_cycles > accounted
                     ? stats.total_cycles - accounted
                     : 0,
                 stats.total_cycles);
  AppendStageRow(&out, "total", stats.total_cycles, stats.total_cycles);
  AppendF(&out,
          "scan:   words=%llu segments=%llu early_stopped=%llu "
          "modeled_leaves=%llu\n",
          static_cast<unsigned long long>(stats.words_scanned),
          static_cast<unsigned long long>(stats.segments_scanned),
          static_cast<unsigned long long>(stats.segments_early_stopped),
          static_cast<unsigned long long>(stats.scan_leaves_modeled));
  AppendF(&out, "filter: rows=%llu/%llu combine_words=%llu\n",
          static_cast<unsigned long long>(stats.rows_passing),
          static_cast<unsigned long long>(stats.rows_total),
          static_cast<unsigned long long>(stats.filter_words_combined));
  AppendF(&out,
          "agg:    folds=%llu segments_skipped=%llu early_stops=%llu "
          "blends_skipped=%llu\n",
          static_cast<unsigned long long>(stats.agg_folds),
          static_cast<unsigned long long>(stats.agg_segments_skipped),
          static_cast<unsigned long long>(stats.agg_compare_early_stops),
          static_cast<unsigned long long>(stats.agg_blends_skipped));
  if (stats.groupby_strategy[0] != '\0') {
    AppendF(&out,
            "groupby: strategy=%s groups=%llu local_hits=%llu "
            "spilled=%llu merge_entries=%llu partitions=%llu "
            "record_bytes=%llu\n",
            stats.groupby_strategy,
            static_cast<unsigned long long>(stats.groupby_groups),
            static_cast<unsigned long long>(stats.groupby_local_hits),
            static_cast<unsigned long long>(stats.groupby_spilled_rows),
            static_cast<unsigned long long>(stats.groupby_merge_entries),
            static_cast<unsigned long long>(stats.groupby_partitions),
            static_cast<unsigned long long>(stats.groupby_record_bytes));
  }
  if (stats.granted_parallelism > 0) {
    AppendF(&out,
            "sched:  parallelism=%d morsels=%llu/%llu cancelled=%llu "
            "steals=%llu queued_cycles=%llu\n",
            stats.granted_parallelism,
            static_cast<unsigned long long>(stats.sched_morsels_completed),
            static_cast<unsigned long long>(stats.sched_morsels_dispatched),
            static_cast<unsigned long long>(stats.sched_morsels_cancelled),
            static_cast<unsigned long long>(stats.sched_steals),
            static_cast<unsigned long long>(stats.admit_queued_cycles));
  }
  AppendF(&out, "cancel_checks=%llu\n",
          static_cast<unsigned long long>(stats.cancel_checks));
  return out;
}

}  // namespace icp
