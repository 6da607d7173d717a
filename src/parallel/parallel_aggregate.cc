#include "parallel/parallel_aggregate.h"

#include <vector>

#include "core/hbp_aggregate.h"
#include "core/vbp_aggregate.h"
#include "scan/hbp_scanner.h"
#include "scan/vbp_scanner.h"
#include "simd/dispatch.h"
#include "util/check.h"

namespace icp::par {
namespace {

constexpr int kMaxThreads = 256;

// Adds every slot's local ScanStats into the caller's (after the region
// completes, so there is no concurrent write). The locals already
// advanced the process-wide counters inside the scanners.
void MergeLocalScanStats(const ScanStats* locals, int n, ScanStats* stats) {
  if (stats == nullptr) return;
  for (int i = 0; i < n; ++i) {
    stats->words_examined += locals[i].words_examined;
    stats->segments_processed += locals[i].segments_processed;
    stats->segments_early_stopped += locals[i].segments_early_stopped;
  }
}

// Same for AggStats (the fold kernels advanced the global counters).
void MergeLocalAggStats(const AggStats* locals, int n, AggStats* stats) {
  if (stats == nullptr) return;
  for (int i = 0; i < n; ++i) {
    stats->folds += locals[i].folds;
    stats->compare_early_stops += locals[i].compare_early_stops;
    stats->blends_skipped += locals[i].blends_skipped;
    stats->segments_skipped += locals[i].segments_skipped;
  }
}

}  // namespace

std::uint64_t Count(ParallelExecutor& ex, const FilterBitVector& filter) {
  // Zero-initialized and folded with += because a morsel executor hands
  // one slot many disjoint subranges.
  std::uint64_t partial[kMaxThreads] = {};
  ICP_CHECK_LE(ex.max_slots(), kMaxThreads);
  const Word* words = filter.words();
  const kern::KernelOps& ops = kern::Ops();
  ex.ParallelFor(filter.num_segments(), nullptr,
                 [&](int slot, std::size_t b, std::size_t e) {
                   partial[slot] += ops.popcount_words(words + b, e - b);
                 });
  std::uint64_t total = 0;
  for (int i = 0; i < ex.max_slots(); ++i) total += partial[i];
  return total;
}

std::uint64_t Count(ThreadPool& pool, const FilterBitVector& filter) {
  StaticPoolExecutor ex(pool);
  return Count(ex, filter);
}

FilterBitVector Scan(ParallelExecutor& ex, const VbpColumn& column,
                     CompareOp op, std::uint64_t c1, std::uint64_t c2,
                     const CancelContext* cancel, ScanStats* stats) {
  FilterBitVector out(column.num_values(), VbpColumn::kValuesPerSegment);
  ICP_CHECK_LE(ex.max_slots(), kMaxThreads);
  ScanStats locals[kMaxThreads];
  ex.ParallelFor(out.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   VbpScanner::ScanRange(
                       column, op, c1, c2, b, e, &out,
                       stats != nullptr ? &locals[slot] : nullptr);
                 });
  MergeLocalScanStats(locals, ex.max_slots(), stats);
  return out;
}

FilterBitVector Scan(ParallelExecutor& ex, const HbpColumn& column,
                     CompareOp op, std::uint64_t c1, std::uint64_t c2,
                     const CancelContext* cancel, ScanStats* stats) {
  FilterBitVector out(column.num_values(), column.values_per_segment());
  ICP_CHECK_LE(ex.max_slots(), kMaxThreads);
  ScanStats locals[kMaxThreads];
  ex.ParallelFor(out.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   HbpScanner::ScanRange(
                       column, op, c1, c2, b, e, &out,
                       stats != nullptr ? &locals[slot] : nullptr);
                 });
  MergeLocalScanStats(locals, ex.max_slots(), stats);
  return out;
}

FilterBitVector Scan(ThreadPool& pool, const VbpColumn& column, CompareOp op,
                     std::uint64_t c1, std::uint64_t c2,
                     const CancelContext* cancel, ScanStats* stats) {
  StaticPoolExecutor ex(pool);
  return Scan(ex, column, op, c1, c2, cancel, stats);
}

FilterBitVector Scan(ThreadPool& pool, const HbpColumn& column, CompareOp op,
                     std::uint64_t c1, std::uint64_t c2,
                     const CancelContext* cancel, ScanStats* stats) {
  StaticPoolExecutor ex(pool);
  return Scan(ex, column, op, c1, c2, cancel, stats);
}

UInt128 Sum(ParallelExecutor& ex, const VbpColumn& column,
            const FilterBitVector& filter, const CancelContext* cancel) {
  const int k = column.bit_width();
  const int slots = ex.max_slots();
  const std::size_t scratch =
      static_cast<std::size_t>(slots) * kWordBits * sizeof(std::uint64_t);
  if (!ex.AccountScratch(scratch)) return UInt128{};
  std::vector<std::uint64_t> bit_sums(
      static_cast<std::size_t>(slots) * kWordBits, 0);
  ex.ParallelFor(filter.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   vbp::AccumulateBitSums(column, filter, b, e,
                                          bit_sums.data() + slot * kWordBits);
                 });
  for (int i = 1; i < slots; ++i) {
    for (int j = 0; j < k; ++j) {
      bit_sums[j] += bit_sums[i * kWordBits + j];
    }
  }
  return vbp::CombineBitSums(bit_sums.data(), k);
}

UInt128 Sum(ParallelExecutor& ex, const HbpColumn& column,
            const FilterBitVector& filter, const CancelContext* cancel) {
  const int slots = ex.max_slots();
  const std::size_t scratch =
      static_cast<std::size_t>(slots) * kWordBits * sizeof(std::uint64_t);
  if (!ex.AccountScratch(scratch)) return UInt128{};
  std::vector<std::uint64_t> group_sums(
      static_cast<std::size_t>(slots) * kWordBits, 0);
  ex.ParallelFor(filter.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   hbp::AccumulateGroupSums(
                       column, filter, b, e,
                       group_sums.data() + slot * kWordBits);
                 });
  for (int i = 1; i < slots; ++i) {
    for (int g = 0; g < column.num_groups(); ++g) {
      group_sums[g] += group_sums[i * kWordBits + g];
    }
  }
  return hbp::CombineGroupSums(column, group_sums.data());
}

UInt128 Sum(ThreadPool& pool, const VbpColumn& column,
            const FilterBitVector& filter, const CancelContext* cancel) {
  StaticPoolExecutor ex(pool);
  return Sum(ex, column, filter, cancel);
}

UInt128 Sum(ThreadPool& pool, const HbpColumn& column,
            const FilterBitVector& filter, const CancelContext* cancel) {
  StaticPoolExecutor ex(pool);
  return Sum(ex, column, filter, cancel);
}

namespace {

// `count` is the filter's population count, computed once per aggregate.
std::optional<std::uint64_t> Extreme(ParallelExecutor& ex,
                                     const VbpColumn& column,
                                     const FilterBitVector& filter,
                                     std::uint64_t count, bool is_min,
                                     const CancelContext* cancel,
                                     AggStats* stats) {
  if (count == 0) return std::nullopt;
  const int k = column.bit_width();
  const int slots = ex.max_slots();
  const std::size_t scratch =
      static_cast<std::size_t>(slots) * kWordBits * sizeof(Word);
  if (!ex.AccountScratch(scratch)) return std::nullopt;
  std::vector<Word> temps(static_cast<std::size_t>(slots) * kWordBits);
  ICP_CHECK_LE(slots, kMaxThreads);
  AggStats locals[kMaxThreads];
  // Slot state is initialized up front on the calling thread: a morsel
  // executor invokes fn once per morsel, not once per slot.
  for (int i = 0; i < slots; ++i) {
    vbp::InitSlotExtreme(k, is_min, temps.data() + i * kWordBits);
  }
  ex.ParallelFor(filter.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   vbp::SlotExtremeRange(
                       column, filter, b, e, is_min,
                       temps.data() + slot * kWordBits,
                       stats != nullptr ? &locals[slot] : nullptr);
                 });
  MergeLocalAggStats(locals, slots, stats);
  for (int i = 1; i < slots; ++i) {
    vbp::MergeSlotExtreme(temps.data() + i * kWordBits, k, is_min,
                          temps.data());
  }
  return vbp::ExtremeOfSlots(temps.data(), k, is_min);
}

std::optional<std::uint64_t> Extreme(ParallelExecutor& ex,
                                     const HbpColumn& column,
                                     const FilterBitVector& filter,
                                     std::uint64_t count, bool is_min,
                                     const CancelContext* cancel,
                                     AggStats* stats) {
  if (count == 0) return std::nullopt;
  const int slots = ex.max_slots();
  const std::size_t scratch =
      static_cast<std::size_t>(slots) * kWordBits * sizeof(Word);
  if (!ex.AccountScratch(scratch)) return std::nullopt;
  std::vector<Word> temps(static_cast<std::size_t>(slots) * kWordBits);
  ICP_CHECK_LE(slots, kMaxThreads);
  AggStats locals[kMaxThreads];
  for (int i = 0; i < slots; ++i) {
    hbp::InitSubSlotExtreme(column, is_min, temps.data() + i * kWordBits);
  }
  ex.ParallelFor(filter.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   hbp::SubSlotExtremeRange(
                       column, filter, b, e, is_min,
                       temps.data() + slot * kWordBits,
                       stats != nullptr ? &locals[slot] : nullptr);
                 });
  MergeLocalAggStats(locals, slots, stats);
  for (int i = 1; i < slots; ++i) {
    hbp::MergeSubSlotExtreme(column, temps.data() + i * kWordBits, is_min,
                             temps.data());
  }
  return hbp::ExtremeOfSubSlots(column, temps.data(), is_min);
}

}  // namespace

std::optional<std::uint64_t> Min(ParallelExecutor& ex, const VbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return Extreme(ex, column, filter, Count(ex, filter), /*is_min=*/true,
                 cancel, stats);
}
std::optional<std::uint64_t> Max(ParallelExecutor& ex, const VbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return Extreme(ex, column, filter, Count(ex, filter), /*is_min=*/false,
                 cancel, stats);
}
std::optional<std::uint64_t> Min(ParallelExecutor& ex, const HbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return Extreme(ex, column, filter, Count(ex, filter), /*is_min=*/true,
                 cancel, stats);
}
std::optional<std::uint64_t> Max(ParallelExecutor& ex, const HbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return Extreme(ex, column, filter, Count(ex, filter), /*is_min=*/false,
                 cancel, stats);
}

std::optional<std::uint64_t> Min(ThreadPool& pool, const VbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  StaticPoolExecutor ex(pool);
  return Min(ex, column, filter, cancel, stats);
}
std::optional<std::uint64_t> Max(ThreadPool& pool, const VbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  StaticPoolExecutor ex(pool);
  return Max(ex, column, filter, cancel, stats);
}
std::optional<std::uint64_t> Min(ThreadPool& pool, const HbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  StaticPoolExecutor ex(pool);
  return Min(ex, column, filter, cancel, stats);
}
std::optional<std::uint64_t> Max(ThreadPool& pool, const HbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  StaticPoolExecutor ex(pool);
  return Max(ex, column, filter, cancel, stats);
}

namespace {

// RankSelect given the filter's population count `u`.
std::optional<std::uint64_t> RankSelectCounted(ParallelExecutor& ex,
                                               const VbpColumn& column,
                                               const FilterBitVector& filter,
                                               std::uint64_t u,
                                               std::uint64_t r,
                                               const CancelContext* cancel) {
  if (r < 1 || r > u) return std::nullopt;
  const std::size_t num_segments = filter.num_segments();
  if (!ex.AccountScratch(num_segments * sizeof(Word))) return std::nullopt;
  std::vector<Word> v(filter.words(), filter.words() + num_segments);

  const int k = column.bit_width();
  const int tau = column.tau();
  const int slots = ex.max_slots();
  ICP_CHECK_LE(slots, kMaxThreads);
  std::uint64_t partial[kMaxThreads];
  std::uint64_t result = 0;
  for (int jb = 0; jb < k; ++jb) {
    if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
    const int g = jb / tau;
    const int j = jb - g * tau;
    std::fill(partial, partial + slots, 0);
    // Parallel popcount reduce; workers synchronize on the global counter c
    // each iteration (the contention the paper attributes to VBP-MEDIAN).
    ex.ParallelFor(num_segments, cancel,
                   [&](int slot, std::size_t b, std::size_t e) {
                     partial[slot] +=
                         vbp::CountCandidateBit(column, v.data(), b, e, g, j);
                   });
    std::uint64_t c = 0;
    for (int i = 0; i < slots; ++i) c += partial[i];
    const bool bit_is_one = u - c < r;
    if (bit_is_one) {
      result |= std::uint64_t{1} << (k - 1 - jb);
      r -= u - c;
      u = c;
    } else {
      u -= c;
    }
    ex.ParallelFor(num_segments, cancel,
                   [&](int, std::size_t b, std::size_t e) {
                     vbp::UpdateCandidates(column, v.data(), b, e, g, j,
                                           bit_is_one);
                   });
  }
  if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
  return result;
}

std::optional<std::uint64_t> RankSelectCounted(ParallelExecutor& ex,
                                               const HbpColumn& column,
                                               const FilterBitVector& filter,
                                               std::uint64_t u,
                                               std::uint64_t r,
                                               const CancelContext* cancel) {
  if (r < 1 || r > u) return std::nullopt;
  const std::size_t num_segments = filter.num_segments();
  const std::size_t bins = std::size_t{1} << column.tau();
  const int slots = ex.max_slots();
  const std::size_t scratch =
      num_segments * sizeof(Word) +
      static_cast<std::size_t>(slots) * bins * sizeof(std::uint64_t);
  if (!ex.AccountScratch(scratch)) return std::nullopt;
  std::vector<Word> v(filter.words(), filter.words() + num_segments);
  std::vector<std::uint64_t> hists(static_cast<std::size_t>(slots) * bins);

  std::uint64_t result = 0;
  for (int g = 0; g < column.num_groups(); ++g) {
    if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
    std::fill(hists.begin(), hists.end(), 0);
    ex.ParallelFor(num_segments, cancel,
                   [&](int slot, std::size_t b, std::size_t e) {
                     hbp::BuildGroupHistogram(column, v.data(), b, e, g,
                                              hists.data() + slot * bins);
                   });
    // A cancelled histogram pass may not cover all candidates; the cumulative
    // walk below could then run past r. Bail out before using it.
    if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
    for (int i = 1; i < slots; ++i) {
      for (std::size_t b = 0; b < bins; ++b) {
        hists[b] += hists[i * bins + b];
      }
    }
    std::uint64_t cum = 0;
    std::uint64_t bin = 0;
    while (bin + 1 < bins && cum + hists[bin] < r) {
      cum += hists[bin];
      ++bin;
    }
    r -= cum;
    result |= bin << column.GroupShift(g);
    if (g + 1 < column.num_groups()) {
      ex.ParallelFor(num_segments, cancel,
                     [&](int, std::size_t b, std::size_t e) {
                       hbp::NarrowCandidates(column, v.data(), b, e, g, bin);
                     });
    }
  }
  if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
  return result;
}

template <typename ColumnT>
std::optional<std::uint64_t> MedianCounted(ParallelExecutor& ex,
                                           const ColumnT& column,
                                           const FilterBitVector& filter,
                                           std::uint64_t count,
                                           const CancelContext* cancel) {
  if (count == 0) return std::nullopt;
  return RankSelectCounted(ex, column, filter, count, LowerMedianRank(count),
                           cancel);
}

}  // namespace

std::optional<std::uint64_t> RankSelect(ParallelExecutor& ex,
                                        const VbpColumn& column,
                                        const FilterBitVector& filter,
                                        std::uint64_t r,
                                        const CancelContext* cancel) {
  return RankSelectCounted(ex, column, filter, Count(ex, filter), r, cancel);
}

std::optional<std::uint64_t> RankSelect(ParallelExecutor& ex,
                                        const HbpColumn& column,
                                        const FilterBitVector& filter,
                                        std::uint64_t r,
                                        const CancelContext* cancel) {
  return RankSelectCounted(ex, column, filter, Count(ex, filter), r, cancel);
}

std::optional<std::uint64_t> RankSelect(ThreadPool& pool,
                                        const VbpColumn& column,
                                        const FilterBitVector& filter,
                                        std::uint64_t r,
                                        const CancelContext* cancel) {
  StaticPoolExecutor ex(pool);
  return RankSelect(ex, column, filter, r, cancel);
}

std::optional<std::uint64_t> RankSelect(ThreadPool& pool,
                                        const HbpColumn& column,
                                        const FilterBitVector& filter,
                                        std::uint64_t r,
                                        const CancelContext* cancel) {
  StaticPoolExecutor ex(pool);
  return RankSelect(ex, column, filter, r, cancel);
}

std::optional<std::uint64_t> Median(ParallelExecutor& ex,
                                    const VbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  return MedianCounted(ex, column, filter, Count(ex, filter), cancel);
}

std::optional<std::uint64_t> Median(ParallelExecutor& ex,
                                    const HbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  return MedianCounted(ex, column, filter, Count(ex, filter), cancel);
}

std::optional<std::uint64_t> Median(ThreadPool& pool, const VbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  StaticPoolExecutor ex(pool);
  return Median(ex, column, filter, cancel);
}

std::optional<std::uint64_t> Median(ThreadPool& pool, const HbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  StaticPoolExecutor ex(pool);
  return Median(ex, column, filter, cancel);
}

namespace {

// Counts the filter once and hands the count to every aggregate that
// needs it, so each kind runs exactly one popcount region.
template <typename ColumnT>
AggregateResult AggregateImpl(ParallelExecutor& ex, const ColumnT& column,
                              const FilterBitVector& filter, AggKind kind,
                              std::uint64_t rank,
                              const CancelContext* cancel, AggStats* stats) {
  AggregateResult result;
  result.kind = kind;
  result.count = Count(ex, filter);
  switch (kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      result.sum = Sum(ex, column, filter, cancel);
      CountFilterSegments(filter, stats);
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      result.value =
          Extreme(ex, column, filter, result.count,
                  /*is_min=*/kind == AggKind::kMin, cancel, stats);
      break;
    case AggKind::kMedian:
      result.value = MedianCounted(ex, column, filter, result.count, cancel);
      CountFilterSegments(filter, stats);
      break;
    case AggKind::kRank:
      result.value =
          RankSelectCounted(ex, column, filter, result.count, rank, cancel);
      CountFilterSegments(filter, stats);
      break;
  }
  return result;
}

}  // namespace

AggregateResult Aggregate(ParallelExecutor& ex, const VbpColumn& column,
                          const FilterBitVector& filter, AggKind kind,
                          std::uint64_t rank, const CancelContext* cancel,
                          AggStats* stats) {
  ICP_OBS_INCREMENT(AggPathVbp);
  return AggregateImpl(ex, column, filter, kind, rank, cancel, stats);
}

AggregateResult Aggregate(ParallelExecutor& ex, const HbpColumn& column,
                          const FilterBitVector& filter, AggKind kind,
                          std::uint64_t rank, const CancelContext* cancel,
                          AggStats* stats) {
  ICP_OBS_INCREMENT(AggPathHbp);
  return AggregateImpl(ex, column, filter, kind, rank, cancel, stats);
}

AggregateResult Aggregate(ThreadPool& pool, const VbpColumn& column,
                          const FilterBitVector& filter, AggKind kind,
                          std::uint64_t rank, const CancelContext* cancel,
                          AggStats* stats) {
  StaticPoolExecutor ex(pool);
  return Aggregate(ex, column, filter, kind, rank, cancel, stats);
}

AggregateResult Aggregate(ThreadPool& pool, const HbpColumn& column,
                          const FilterBitVector& filter, AggKind kind,
                          std::uint64_t rank, const CancelContext* cancel,
                          AggStats* stats) {
  StaticPoolExecutor ex(pool);
  return Aggregate(ex, column, filter, kind, rank, cancel, stats);
}

}  // namespace icp::par
