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
// each partition counts its non-empty groups. A third region hands the
// groups to the caller's GroupSink in code order, every partition filling
// its own slice of a result the caller sized once, so no serial copy
// follows the merge.
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
// (popcount_words / popcount_and), dead 64-row segments are skipped on
// the segment word, and a live segment's passing rows are read from the
// VBP planes by vbp_select, group and agg column under the same mask.
// Only the fold into per-group records is scalar, one step per selected
// row — the part no bit-parallel layout can batch (see docs/groupby.md).
//
// Failure injection: `groupby/spill` fires on the spill-append path and
// `groupby/merge` once per merged partition; both latch and surface
// Status Internal after the region drains (no partial results escape).

#ifndef ICP_GROUPBY_GROUPBY_H_
#define ICP_GROUPBY_GROUPBY_H_

#include <cstddef>
#include <cstdint>

#include "bitvector/filter_bit_vector.h"
#include "core/aggregate.h"
#include "layout/layout.h"
#include "layout/vbp_column.h"
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

/// Where the pass reads one column's codes. A VBP column (lanes == 1) is
/// read straight from its bit planes: for each live 64-row segment the
/// vbp_select kernel slot (simd/dispatch.h) writes the passing rows'
/// codes, so only the rows that pass are rebuilt (the paper's Section III
/// reconstruction, per segment). Any other column is decoded a segment at
/// a time through `decode` and compacted to the passing rows. Either way
/// the column is never held as plain codes.
struct CodeSource {
  const VbpColumn* vbp = nullptr;
  const void* column = nullptr;
  void (*decode)(const void* column, std::size_t begin, std::size_t n,
                 std::uint64_t* out) = nullptr;

  /// A source over any column type with spec(), vbp() and a
  /// DecodeCodes(begin, n, out) const member (Table::Column).
  template <typename Column>
  static CodeSource Of(const Column& column) {
    if (column.spec().layout == Layout::kVbp && column.vbp().lanes() == 1) {
      return {.vbp = &column.vbp()};
    }
    return {.column = &column,
            .decode = [](const void* c, std::size_t begin, std::size_t n,
                         std::uint64_t* out) {
              static_cast<const Column*>(c)->DecodeCodes(begin, n, out);
            }};
  }

  bool present() const { return vbp != nullptr || decode != nullptr; }
};

/// Inputs in the code domain. The columns and bit vectors are borrowed;
/// they must stay valid for the duration of Execute.
struct Input {
  /// The group column's codes.
  CodeSource group_codes;
  /// Dictionary size; every group code is < num_codes.
  std::uint64_t num_codes = 0;
  /// The agg column's codes; unset for COUNT (codes unused).
  CodeSource agg_codes;
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

/// Receives the groups of one Execute call. Execute calls Resize once,
/// with the number of non-empty groups, and then Fill from the executor's
/// slots, once or more per radix partition: groups[0, n) are consecutive
/// groups of the ascending code order and belong at positions
/// [first, first + n) of it. Concurrent Fill calls cover disjoint
/// positions. When Execute fails, what the sink holds is unspecified.
class GroupSink {
 public:
  virtual ~GroupSink() = default;
  virtual void Resize(std::size_t groups) = 0;
  virtual void Fill(std::size_t first, const Group* groups,
                    std::size_t n) = 0;
};

/// Runs the single-pass operator on `ex` and hands the non-empty groups,
/// in ascending code order, to `sink`. Scratch (local tables, plus the
/// merge's dense arrays when the tables are hashed) is metered through
/// ex.AccountScratch; kResourceExhausted when the budget is exhausted,
/// kCancelled / kDeadlineExceeded when `cancel` fires (every region
/// drains cleanly first), Internal when an armed groupby/{spill,merge}
/// failpoint fires.
Status Execute(const Input& in, const Options& options, ParallelExecutor& ex,
               const CancelContext* cancel, Stats* stats, GroupSink& sink);

}  // namespace icp::groupby

#endif  // ICP_GROUPBY_GROUPBY_H_
