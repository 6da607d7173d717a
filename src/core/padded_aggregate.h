// Aggregation over the padded layout: typed loops with branchless masked
// accumulation (SUM) and per-bit iteration for the order statistics — the
// realistic "no intra-cycle parallelism" baseline.
//
// All entry points take an optional CancelContext and poll it between
// segment batches (in-kernel cooperative cancellation).

#ifndef ICP_CORE_PADDED_AGGREGATE_H_
#define ICP_CORE_PADDED_AGGREGATE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "bitvector/filter_bit_vector.h"
#include "core/aggregate.h"
#include "layout/padded_column.h"
#include "util/bits.h"
#include "util/cancellation.h"

namespace icp::padded {

template <typename Fn>
bool ForEachPassing(const PaddedColumn& column, const FilterBitVector& filter,
                    Fn&& fn, const CancelContext* cancel = nullptr) {
  return ForEachCancellableBatch(
      cancel, 0, filter.num_segments(), [&](std::size_t b, std::size_t e) {
        for (std::size_t seg = b; seg < e; ++seg) {
          Word f = filter.SegmentWord(seg);
          while (f != 0) {
            const int pos = CountTrailingZeros(f);
            f &= f - 1;
            fn(column.GetValue(seg * kWordBits + (kWordBits - 1 - pos)));
          }
        }
      });
}

namespace internal {

template <typename T>
UInt128 SumTyped(const PaddedColumn& column, const FilterBitVector& filter,
                 const CancelContext* cancel) {
  const T* data = column.As<T>();
  const std::size_t n = column.num_values();
  std::uint64_t sum = 0;
  // 64-bit elements can wrap `sum` within one segment: count the wraps.
  std::uint64_t carries = 0;
  UInt128 wide_sum = 0;
  ForEachCancellableBatch(
      cancel, 0, filter.num_segments(), [&](std::size_t sb, std::size_t se) {
        for (std::size_t seg = sb; seg < se; ++seg) {
          const Word f = filter.SegmentWord(seg);
          const std::size_t begin = seg * kWordBits;
          const std::size_t end =
              begin + kWordBits < n ? begin + kWordBits : n;
          // Branchless masked add; auto-vectorizable.
          for (std::size_t i = begin; i < end; ++i) {
            const std::uint64_t mask =
                static_cast<std::uint64_t>(0) -
                ((f >> (63 - (i - begin))) & 1);
            const std::uint64_t v = static_cast<std::uint64_t>(data[i]) & mask;
            sum += v;
            if constexpr (sizeof(T) == sizeof(std::uint64_t)) {
              carries += sum < v ? 1 : 0;
            }
          }
          // Periodically drain into the wide accumulator so narrow-element
          // sums cannot overflow 64 bits even for huge columns.
          if ((seg & 0xFFFF) == 0xFFFF) {
            wide_sum += sum;
            sum = 0;
          }
        }
      });
  return wide_sum + sum + (static_cast<UInt128>(carries) << kWordBits);
}

}  // namespace internal

inline UInt128 Sum(const PaddedColumn& column, const FilterBitVector& filter,
                   const CancelContext* cancel = nullptr) {
  switch (column.element_bits()) {
    case 8:
      return internal::SumTyped<std::uint8_t>(column, filter, cancel);
    case 16:
      return internal::SumTyped<std::uint16_t>(column, filter, cancel);
    case 32:
      return internal::SumTyped<std::uint32_t>(column, filter, cancel);
    default:
      return internal::SumTyped<std::uint64_t>(column, filter, cancel);
  }
}

[[nodiscard]] inline std::optional<std::uint64_t> Min(
    const PaddedColumn& column, const FilterBitVector& filter,
    const CancelContext* cancel = nullptr) {
  std::optional<std::uint64_t> best;
  ForEachPassing(
      column, filter,
      [&](std::uint64_t v) {
        if (!best.has_value() || v < *best) best = v;
      },
      cancel);
  return best;
}

[[nodiscard]] inline std::optional<std::uint64_t> Max(
    const PaddedColumn& column, const FilterBitVector& filter,
    const CancelContext* cancel = nullptr) {
  std::optional<std::uint64_t> best;
  ForEachPassing(
      column, filter,
      [&](std::uint64_t v) {
        if (!best.has_value() || v > *best) best = v;
      },
      cancel);
  return best;
}

[[nodiscard]] inline std::optional<std::uint64_t> RankSelect(
    const PaddedColumn& column, const FilterBitVector& filter, std::uint64_t r,
    const CancelContext* cancel = nullptr) {
  const std::uint64_t count = filter.CountOnes();
  if (r < 1 || r > count) return std::nullopt;
  std::vector<std::uint64_t> values;
  values.reserve(count);
  if (!ForEachPassing(
          column, filter, [&](std::uint64_t v) { values.push_back(v); },
          cancel)) {
    return std::nullopt;
  }
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(r - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

[[nodiscard]] inline std::optional<std::uint64_t> Median(
    const PaddedColumn& column, const FilterBitVector& filter,
    const CancelContext* cancel = nullptr) {
  return RankSelect(column, filter, LowerMedianRank(filter.CountOnes()),
                    cancel);
}

/// `stats`, when non-null, carries the CountFilterSegments liveness
/// summary: the order statistics (ForEachPassing) genuinely skip all-dead
/// segments, SUM's masked loop still touches every word of them.
inline AggregateResult Aggregate(const PaddedColumn& column,
                                 const FilterBitVector& filter, AggKind kind,
                                 std::uint64_t rank = 0,
                                 const CancelContext* cancel = nullptr,
                                 AggStats* stats = nullptr) {
  ICP_OBS_INCREMENT(AggPathPadded);
  AggregateResult result;
  result.kind = kind;
  result.count = filter.CountOnes();
  switch (kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      result.sum = Sum(column, filter, cancel);
      CountFilterSegments(filter, stats);
      break;
    case AggKind::kMin:
      result.value = Min(column, filter, cancel);
      CountFilterSegments(filter, stats);
      break;
    case AggKind::kMax:
      result.value = Max(column, filter, cancel);
      CountFilterSegments(filter, stats);
      break;
    case AggKind::kMedian:
      result.value = Median(column, filter, cancel);
      CountFilterSegments(filter, stats);
      break;
    case AggKind::kRank:
      result.value = RankSelect(column, filter, rank, cancel);
      CountFilterSegments(filter, stats);
      break;
  }
  return result;
}

}  // namespace icp::padded

#endif  // ICP_CORE_PADDED_AGGREGATE_H_
