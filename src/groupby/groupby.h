// Single-pass high-cardinality grouped aggregation.
//
// The engine's historical GROUP BY ran one bit-parallel scan per group
// code — O(groups x table) work that collapses past a few hundred groups.
// This operator instead makes one morsel-driven pass over the table: each
// worker slot keeps a thread-local fixed-size aggregation table keyed by
// dictionary codes (direct-indexed when the dictionary fits the local
// budget, open-addressed otherwise) and spills rows whose group cannot be
// admitted into radix partitions keyed by the code's high bits. A second
// parallel region then merges per partition, i.e. per contiguous code
// range: direct tables are summed slot by slot over the range, hashed
// tables' entries and the packed spill rows fold into one dense array, and
// the non-empty groups come out in code order.
//
// Group records hold only what the aggregate needs. When no passing agg
// value is NULL and code-domain sums fit 64 bits, a group is a 16-byte
// {rows, value} record (value = code sum for COUNT/SUM/AVG, the running
// extreme for MIN/MAX), so a 2^16-code dictionary direct-indexes in the
// default 1 MiB per slot. Otherwise a group is the 48-byte record of
// rows, non-NULL count, 128-bit sum, min and max. Each slot's state sits
// on cache lines of its own, so slots never write a shared line.
//
// The operator works in the code domain only (the caller decodes through
// the column encoder) and leans on the kernel registry where the work is
// bit-parallel: filter liveness is popcounted through kern::Ops()
// (popcount_words / popcount_and) and dead 64-row segments are skipped on
// the segment word, while the scatter into per-group records is scalar
// per passing row — the part no bit-parallel layout can batch (see
// docs/groupby.md).
//
// Failure injection: `groupby/spill` fires on the spill-append path and
// `groupby/merge` once per merged partition; both latch and surface
// Status Internal after the region drains (no partial results escape).

#ifndef ICP_GROUPBY_GROUPBY_H_
#define ICP_GROUPBY_GROUPBY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitvector/filter_bit_vector.h"
#include "core/aggregate.h"
#include "parallel/executor.h"
#include "util/bits.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace icp::groupby {

/// Tuning knobs for one Execute call. The caller (engine) derives
/// local_table_bytes from ExecOptions::groupby_local_bytes; the query's
/// total local-table memory is local_table_bytes x the executor's slots,
/// so a governor-degraded grant shrinks it automatically.
struct Options {
  /// COUNT, SUM, AVG, MIN or MAX; decides Group::value and, with the agg
  /// column's NULLs and bit width, the size of a group record.
  AggKind kind = AggKind::kCount;
  /// Per-slot local aggregation-table budget in bytes. A dictionary goes
  /// direct-indexed when num_codes x the record size (16 or 48 bytes)
  /// fits it, open-addressed otherwise. Budgets too small for even one
  /// hash entry put the slot in pure-spill mode (every row spills) — the
  /// degenerate case the overflow tests pin down.
  std::size_t local_table_bytes = std::size_t{1} << 20;
  /// log2 of the radix-partition fan-out ceiling; partitions cover
  /// contiguous code ranges so merged groups concatenate in code order.
  int radix_bits = 6;
};

/// Work accounting for one Execute call (also mirrored into the
/// process-wide groupby.* counters at batch granularity).
struct Stats {
  std::uint64_t local_hits = 0;     // rows absorbed by a local table
  std::uint64_t spilled_rows = 0;   // rows packed into radix partitions
  std::uint64_t merge_entries = 0;  // non-empty per-slot entries folded
  std::uint64_t partitions = 0;     // radix partitions merged
  std::uint64_t groups = 0;         // non-empty groups emitted
  std::uint64_t record_bytes = 0;   // bytes per group record: 16 or 48
  bool hashed = false;              // open-addressed local tables (vs direct)
};

/// One non-empty group in the code domain. A group exists when at least
/// one filter-passing row carries its code, even if every agg value of
/// those rows is NULL. `count` covers only rows whose agg value is
/// non-NULL, matching SQL aggregate semantics. `value` depends on
/// Options::kind: the code sum for COUNT/SUM/AVG (0 when agg_codes is
/// unset), the least code for MIN, the greatest for MAX (meaningless when
/// count is 0).
struct Group {
  std::uint64_t code = 0;
  std::uint64_t count = 0;
  UInt128 value = 0;
};

/// Reads the codes of rows [begin, begin + n) of one column into out[0, n).
/// The pass reads one 64-row segment at a time into a 64-entry buffer, so
/// a column packed bit-parallel is decoded a segment at a time (the
/// paper's Section III reconstruction) and never held as plain codes.
struct CodeReader {
  const void* column = nullptr;
  void (*read)(const void* column, std::size_t begin, std::size_t n,
               std::uint64_t* out) = nullptr;

  /// A reader over any column type with a
  /// DecodeCodes(begin, n, out) const member (Table::Column).
  template <typename Column>
  static CodeReader Of(const Column& column) {
    return {&column, [](const void* c, std::size_t begin, std::size_t n,
                        std::uint64_t* out) {
              static_cast<const Column*>(c)->DecodeCodes(begin, n, out);
            }};
  }

  bool present() const { return read != nullptr; }
  void Read(std::size_t begin, std::size_t n, std::uint64_t* out) const {
    read(column, begin, n, out);
  }
};

/// Inputs in the code domain. The columns and bit vectors are borrowed;
/// they must stay valid for the duration of Execute.
struct Input {
  /// The group column's codes.
  CodeReader group_codes;
  /// Dictionary size; every group code is < num_codes.
  std::uint64_t num_codes = 0;
  /// The agg column's codes; unset for COUNT (codes unused).
  CodeReader agg_codes;
  /// Bit width of the agg codes (0 when agg_codes is unset); decides
  /// whether a spilled row packs into one 64-bit word or two.
  int agg_bits = 0;
  /// Filter pass set ANDed with the group column's validity (NULL group
  /// rows belong to no group). Any values_per_segment; reshaped
  /// internally to 64-row segments.
  const FilterBitVector* filter = nullptr;
  /// Agg-column validity (1 = non-NULL), or null when the column has no
  /// NULLs. Any values_per_segment.
  const FilterBitVector* agg_validity = nullptr;
  std::size_t num_rows = 0;
};

/// Runs the single-pass operator on `ex` and returns the non-empty groups
/// in ascending code order. Scratch (local tables, plus the merge's dense
/// arrays when the tables are hashed) is metered through
/// ex.AccountScratch; kResourceExhausted when the budget is exhausted,
/// kCancelled / kDeadlineExceeded when `cancel` fires (both regions drain
/// cleanly first), Internal when an armed groupby/{spill,merge} failpoint
/// fires.
StatusOr<std::vector<Group>> Execute(
    const Input& in, const Options& options, ParallelExecutor& ex,
    const CancelContext* cancel, Stats* stats);

}  // namespace icp::groupby

#endif  // ICP_GROUPBY_GROUPBY_H_
