#include "groupby/groupby.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>

#include "obs/obs.h"
#include "obs/trace.h"
#include "simd/dispatch.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace icp::groupby {
namespace {

// Open-addressing sentinel: dictionary codes are dense in [0, num_codes)
// and a dictionary of 2^64 - 1 entries cannot exist, so ~0 is never a key.
constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

// Fibonacci multiplicative mix; dictionary codes are dense small integers,
// so the multiply spreads consecutive codes across the table.
inline std::size_t HashCode(std::uint64_t code, std::size_t mask) {
  return static_cast<std::size_t>(code * 0x9E3779B97F4A7C15ull >> 32) & mask;
}

// The 48-byte group record: every aggregate at once, NULL-aware, with a
// 128-bit sum. `rows` counts every filter-passing row (group presence);
// the rest covers only rows whose agg value is non-NULL. An empty record
// is the identity of Merge.
struct WideRecord {
  std::uint64_t rows = 0;
  std::uint64_t count = 0;
  UInt128 sum = 0;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;

  void Fold(std::uint64_t code, bool valid) {
    rows += 1;
    if (valid) {
      count += 1;
      sum += code;
      if (code < min) min = code;
      if (code > max) max = code;
    }
  }
  void Merge(const WideRecord& from) {
    rows += from.rows;
    count += from.count;
    sum += from.sum;
    if (from.min < min) min = from.min;
    if (from.max > max) max = from.max;
  }
  Group ToGroup(std::uint64_t code, AggKind kind) const {
    switch (kind) {
      case AggKind::kMin:
        return {code, count, min};
      case AggKind::kMax:
        return {code, count, max};
      default:
        return {code, count, sum};
    }
  }
};

struct SumOp {
  static constexpr std::uint64_t kIdentity = 0;
  static std::uint64_t Apply(std::uint64_t a, std::uint64_t b) {
    return a + b;
  }
};
struct MinOp {
  static constexpr std::uint64_t kIdentity = ~std::uint64_t{0};
  static std::uint64_t Apply(std::uint64_t a, std::uint64_t b) {
    return std::min(a, b);
  }
};
struct MaxOp {
  static constexpr std::uint64_t kIdentity = 0;
  static std::uint64_t Apply(std::uint64_t a, std::uint64_t b) {
    return std::max(a, b);
  }
};

// The 16-byte group record: rows plus the one value the aggregate needs.
// Valid only when every passing agg value is non-NULL (so the non-NULL
// count is `rows` and Fold ignores `valid`) and, for SumOp, when the
// code-domain sums fit 64 bits.
template <typename Op>
struct NarrowRecord {
  std::uint64_t rows = 0;
  std::uint64_t value = Op::kIdentity;

  void Fold(std::uint64_t code, bool /*valid*/) {
    rows += 1;
    value = Op::Apply(value, code);
  }
  void Merge(const NarrowRecord& from) {
    rows += from.rows;
    value = Op::Apply(value, from.value);
  }
  Group ToGroup(std::uint64_t code, AggKind /*kind*/) const {
    return {code, rows, value};
  }
};
static_assert(sizeof(NarrowRecord<SumOp>) == 16);
static_assert(sizeof(WideRecord) == 48);

// What Execute works out once from its input; every pass reads it.
struct Plan {
  const Input* in = nullptr;
  AggKind kind = AggKind::kCount;
  const Word* fwords = nullptr;
  const Word* vwords = nullptr;  // null: no passing agg value is NULL
  std::size_t num_segments = 0;
  int shift = 0;  // code >> shift = radix partition
  std::size_t num_partitions = 0;
  int agg_bits = 0;
  bool one_word_spill = false;
};

// One worker slot's pass-1 state: the local table plus the per-partition
// spill buffers. Only its owning slot touches it during the region
// (ParallelExecutor slot contract); alignas keeps neighbouring slots'
// states off each other's cache lines. The table is allocated by the
// slot's first subrange, so its pages are first touched by that worker
// and slots that get no work allocate nothing.
template <typename Record>
struct alignas(64) LocalState {
  bool ready = false;
  std::size_t size = 0;              // occupied hash entries
  std::vector<std::uint64_t> keys;   // open-addressed keys; empty if direct
  std::vector<Record> records;       // by code if direct, else by hash slot
  std::vector<std::vector<Word>> spill;
  std::uint64_t local_hits = 0;
  std::uint64_t spilled_rows = 0;
};

// The open-addressed slot for `code`, or nullptr when the row must spill
// (pure-spill mode, or a table at its load-factor bound seeing a new key).
template <typename Record>
inline Record* Probe(LocalState<Record>& st, std::uint64_t code) {
  const std::size_t capacity = st.keys.size();
  if (capacity == 0) return nullptr;
  const std::size_t mask = capacity - 1;
  std::size_t i = HashCode(code, mask);
  while (true) {
    if (st.keys[i] == code) return &st.records[i];
    if (st.keys[i] == kEmptyKey) {
      if (st.size >= capacity - capacity / 4) return nullptr;
      st.keys[i] = code;
      ++st.size;
      return &st.records[i];
    }
    i = (i + 1) & mask;
  }
}

// Injected-failure latch shared by both regions; first error wins.
enum InjectedError : int { kNone = 0, kSpillInjected = 1, kMergeInjected = 2 };

template <typename Record>
struct Partial {
  std::uint64_t code = 0;
  Record record;
};

template <typename Record>
StatusOr<std::vector<Group>> Run(const Plan& plan, const Options& options,
                                 ParallelExecutor& ex,
                                 const CancelContext* cancel, Stats* stats) {
  const Input& in = *plan.in;
  const int shift = plan.shift;
  const int agg_bits = plan.agg_bits;

  // Local-table mode from the per-slot budget: direct-indexed when the
  // whole dictionary fits, open-addressed otherwise, pure spill when not
  // even a minimal hash table fits.
  const std::size_t budget = options.local_table_bytes;
  const bool direct = in.num_codes * sizeof(Record) <= budget;
  constexpr std::size_t kEntryBytes = sizeof(Record) + sizeof(std::uint64_t);
  std::size_t capacity = 0;
  if (!direct) {
    std::size_t cap = std::size_t{1} << 3;
    while (cap * 2 * kEntryBytes <= budget) cap *= 2;
    if (cap * kEntryBytes <= budget) capacity = cap;
  }
  const std::size_t table_bytes =
      direct ? in.num_codes * sizeof(Record) : capacity * kEntryBytes;

  const int slots = ex.max_slots();
  ICP_CHECK_GE(slots, 1);
  // Pass-1 local tables, plus the merge's dense arrays when the tables
  // are hashed (the partition ranges are disjoint, so they sum to
  // num_codes records). Direct tables merge into one slot's table.
  const std::size_t scratch =
      static_cast<std::size_t>(slots) * table_bytes +
      (direct ? 0 : in.num_codes * sizeof(Record));
  if (!ex.AccountScratch(scratch)) {
    return Status::ResourceExhausted(
        "group-by scratch budget exhausted (local tables + merge "
        "accumulators)");
  }

  std::vector<LocalState<Record>> locals(static_cast<std::size_t>(slots));
  std::atomic<int> injected{kNone};

  {
    ICP_OBS_TRACE_SPAN("groupby.pass", 0);
    ex.ParallelFor(
        plan.num_segments, cancel,
        [&](int slot, std::size_t begin, std::size_t end) {
          LocalState<Record>& st = locals[static_cast<std::size_t>(slot)];
          // order: relaxed — first-injection latch; the region barrier
          // orders it before the post-phase read.
          if (injected.load(std::memory_order_relaxed) != kNone) return;
          if (!st.ready) {
            st.ready = true;
            if (direct) {
              st.records.resize(in.num_codes);
            } else {
              st.keys.assign(capacity, kEmptyKey);
              st.records.resize(capacity);
              st.spill.resize(plan.num_partitions);
            }
          }
          Record* const table = st.records.data();
          std::uint64_t hits = 0;
          std::uint64_t spilled = 0;
          std::uint64_t group_buf[kWordBits];
          std::uint64_t agg_buf[kWordBits] = {};
          // cancellation: exempt — the executor polls the context
          // between subranges (per morsel / per cancel batch); one
          // subrange is the cancellation granularity of this pass.
          for (std::size_t seg = begin; seg < end; ++seg) {
            Word w = plan.fwords[seg];
            if (w == 0) continue;  // dead 64-row segment: no per-row work
            const Word vw =
                plan.vwords != nullptr ? plan.vwords[seg] : ~Word{0};
            const std::size_t row0 = seg * kWordBits;
            const std::size_t rows =
                std::min<std::size_t>(kWordBits, in.num_rows - row0);
            in.group_codes.Read(row0, rows, group_buf);
            if (in.agg_codes.present()) in.agg_codes.Read(row0, rows, agg_buf);
            if (direct) {
              hits += static_cast<std::uint64_t>(std::popcount(w));
              while (w != 0) {
                const int bit = std::countl_zero(w);
                w &= ~(Word{1} << (kWordBits - 1 - bit));
                table[group_buf[bit]].Fold(
                    agg_buf[bit], ((vw >> (kWordBits - 1 - bit)) & 1) != 0);
              }
              continue;
            }
            while (w != 0) {
              const int bit = std::countl_zero(w);
              w &= ~(Word{1} << (kWordBits - 1 - bit));
              const std::uint64_t g = group_buf[bit];
              const bool valid =
                  ((vw >> (kWordBits - 1 - bit)) & Word{1}) != 0;
              const std::uint64_t a = agg_buf[bit];
              if (Record* r = Probe(st, g); r != nullptr) {
                r->Fold(a, valid);
                ++hits;
                continue;
              }
              if (ICP_FAILPOINT("groupby/spill")) {
                // order: relaxed — injection latch; read post-barrier.
                injected.store(kSpillInjected, std::memory_order_relaxed);
                return;
              }
              std::vector<Word>& bucket = st.spill[g >> shift];
              if (plan.one_word_spill) {
                bucket.push_back((g << (agg_bits + 1)) | (a << 1) |
                                 (valid ? 1 : 0));
              } else {
                bucket.push_back((g << 1) | (valid ? 1 : 0));
                bucket.push_back(a);
              }
              ++spilled;
            }
          }
          st.local_hits += hits;
          st.spilled_rows += spilled;
        });
  }
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  // order: relaxed — read after ParallelFor joined; the region barrier
  // ordered every worker's store.
  if (injected.load(std::memory_order_relaxed) == kSpillInjected) {
    return Status::Internal("injected group-by spill failure");
  }

  // Direct tables merge in place: each partition folds every other
  // slot's records over its code range into the first ready slot's.
  // Hashed tables are drained into per-partition partial lists so the
  // merge region never probes a foreign hash table.
  std::vector<Record*> tables;
  for (LocalState<Record>& st : locals) {
    if (direct && st.ready) tables.push_back(st.records.data());
  }
  // No slot ran (the executor dropped the region): nothing to merge.
  if (direct && tables.empty()) return std::vector<Group>{};
  std::vector<std::vector<Partial<Record>>> partials;
  std::uint64_t merge_entries = 0;
  if (!direct) {
    partials.resize(plan.num_partitions);
    for (const LocalState<Record>& st : locals) {
      for (std::size_t i = 0; i < st.keys.size(); ++i) {
        if (st.keys[i] == kEmptyKey) continue;
        partials[st.keys[i] >> shift].push_back(
            Partial<Record>{st.keys[i], st.records[i]});
        ++merge_entries;
      }
    }
  }

  std::vector<std::vector<Group>> out_parts(plan.num_partitions);
  std::vector<std::uint64_t> part_entries(plan.num_partitions, 0);
  const std::uint64_t agg_mask = LowMask(agg_bits);
  {
    ICP_OBS_TRACE_SPAN("groupby.merge", 0);
    ex.ParallelFor(
        plan.num_partitions, cancel,
        [&](int, std::size_t begin, std::size_t end) {
          std::vector<Record> dense;
          for (std::size_t p = begin; p < end; ++p) {
            // order: relaxed — first-injection latch; read post-barrier.
            if (injected.load(std::memory_order_relaxed) != kNone) return;
            if (cancel != nullptr && cancel->ShouldStop()) return;
            if (ICP_FAILPOINT("groupby/merge")) {
              // order: relaxed — injection latch; read post-barrier.
              injected.store(kMergeInjected, std::memory_order_relaxed);
              return;
            }
            const std::uint64_t lo = static_cast<std::uint64_t>(p) << shift;
            const std::uint64_t hi = std::min<std::uint64_t>(
                in.num_codes, lo + (std::uint64_t{1} << shift));
            const std::size_t n = static_cast<std::size_t>(hi - lo);
            Record* into = nullptr;
            std::uint64_t entries = 0;
            if (direct) {
              // Safe to write: partitions own disjoint code ranges, and
              // the pass region's barrier ordered every slot's writes.
              into = tables.front() + lo;
              for (std::size_t i = 0; i < n; ++i) {
                entries += into[i].rows != 0 ? 1 : 0;
              }
              for (std::size_t t = 1; t < tables.size(); ++t) {
                const Record* from = tables[t] + lo;
                for (std::size_t i = 0; i < n; ++i) {
                  entries += from[i].rows != 0 ? 1 : 0;
                  into[i].Merge(from[i]);
                }
              }
            } else {
              dense.assign(n, Record{});
              into = dense.data();
              for (const Partial<Record>& pt : partials[p]) {
                into[pt.code - lo].Merge(pt.record);
              }
              for (const LocalState<Record>& st : locals) {
                if (st.spill.empty()) continue;
                const std::vector<Word>& bucket = st.spill[p];
                if (plan.one_word_spill) {
                  for (const Word w : bucket) {
                    into[(w >> (agg_bits + 1)) - lo].Fold(
                        (w >> 1) & agg_mask, (w & 1) != 0);
                  }
                } else {
                  for (std::size_t i = 0; i + 1 < bucket.size(); i += 2) {
                    into[(bucket[i] >> 1) - lo].Fold(bucket[i + 1],
                                                     (bucket[i] & 1) != 0);
                  }
                }
              }
            }
            part_entries[p] = entries;
            std::vector<Group>& out = out_parts[p];
            for (std::size_t i = 0; i < n; ++i) {
              if (into[i].rows != 0) {
                out.push_back(into[i].ToGroup(lo + i, plan.kind));
              }
            }
          }
        });
  }
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  // order: relaxed — read after ParallelFor joined; the region barrier
  // ordered every worker's store.
  if (injected.load(std::memory_order_relaxed) == kMergeInjected) {
    return Status::Internal("injected group-by merge failure");
  }

  std::vector<Group> results;
  std::size_t total_groups = 0;
  for (const auto& part : out_parts) total_groups += part.size();
  results.reserve(total_groups);
  for (const auto& part : out_parts) {
    results.insert(results.end(), part.begin(), part.end());
  }

  std::uint64_t local_hits = 0;
  std::uint64_t spilled_rows = 0;
  for (const LocalState<Record>& st : locals) {
    local_hits += st.local_hits;
    spilled_rows += st.spilled_rows;
  }
  for (const std::uint64_t e : part_entries) merge_entries += e;
  ICP_OBS_ADD(GroupByLocalHits, local_hits);
  ICP_OBS_ADD(GroupBySpilledRows, spilled_rows);
  ICP_OBS_ADD(GroupByMergeEntries, merge_entries);
  ICP_OBS_ADD(GroupByPartitionsMerged, plan.num_partitions);
  if (stats != nullptr) {
    stats->local_hits += local_hits;
    stats->spilled_rows += spilled_rows;
    stats->merge_entries += merge_entries;
    stats->partitions += plan.num_partitions;
    stats->groups += results.size();
    stats->record_bytes = sizeof(Record);
    stats->hashed = !direct && capacity != 0;
  }
  return results;
}

}  // namespace

StatusOr<std::vector<Group>> Execute(const Input& in, const Options& options,
                                     ParallelExecutor& ex,
                                     const CancelContext* cancel,
                                     Stats* stats) {
  ICP_CHECK(in.group_codes.present());
  ICP_CHECK(in.filter != nullptr);
  ICP_CHECK_GE(options.radix_bits, 0);
  if (in.num_codes == 0 || in.num_rows == 0) return std::vector<Group>{};

  // The pass iterates 64-row segments; reshape the (already validity-
  // intersected) filter and the agg validity once if they arrived in
  // another layout's shape.
  FilterBitVector reshaped_filter;
  const FilterBitVector* filter = in.filter;
  if (filter->values_per_segment() != kWordBits) {
    reshaped_filter = filter->Reshape(kWordBits);
    filter = &reshaped_filter;
  }
  FilterBitVector reshaped_validity;
  const FilterBitVector* validity = in.agg_validity;
  if (validity != nullptr && validity->values_per_segment() != kWordBits) {
    reshaped_validity = validity->Reshape(kWordBits);
    validity = &reshaped_validity;
  }

  Plan plan;
  plan.in = &in;
  plan.kind = options.kind;
  plan.fwords = filter->words();
  plan.vwords = validity != nullptr ? validity->words() : nullptr;
  plan.num_segments = filter->num_segments();

  // Bit-parallel liveness: the passing-row and non-NULL-row totals come
  // from the registry popcounts, and an all-dead filter exits before any
  // per-row work.
  const kern::KernelOps& ops = kern::Ops();
  const std::uint64_t passing =
      ops.popcount_words(plan.fwords, plan.num_segments);
  if (passing == 0) return std::vector<Group>{};
  if (plan.vwords != nullptr &&
      ops.popcount_and(plan.fwords, plan.vwords, plan.num_segments) ==
          passing) {
    // No NULL agg value passes the filter: drop the per-row validity test
    // from the scatter loop.
    plan.vwords = nullptr;
  }

  // Radix geometry: partitions are contiguous code ranges (high bits of
  // the code), so per-partition merge output concatenates in code order.
  const int group_bits = BitsFor(in.num_codes - 1);
  plan.shift = std::max(0, group_bits - options.radix_bits);
  plan.num_partitions =
      static_cast<std::size_t>((in.num_codes - 1) >> plan.shift) + 1;
  plan.agg_bits = in.agg_codes.present() ? in.agg_bits : 0;
  plan.one_word_spill = group_bits + plan.agg_bits + 1 <= kWordBits;

  // The 16-byte record needs every passing agg value non-NULL and, where
  // the aggregate sums, sums of `passing` codes of agg_bits bits that fit
  // 64 bits.
  const bool sum_fits = plan.agg_bits + BitsFor(passing) <= kWordBits;
  if (plan.vwords == nullptr) {
    switch (options.kind) {
      case AggKind::kCount:
      case AggKind::kSum:
      case AggKind::kAvg:
        if (sum_fits) {
          return Run<NarrowRecord<SumOp>>(plan, options, ex, cancel, stats);
        }
        break;
      case AggKind::kMin:
        return Run<NarrowRecord<MinOp>>(plan, options, ex, cancel, stats);
      case AggKind::kMax:
        return Run<NarrowRecord<MaxOp>>(plan, options, ex, cancel, stats);
      default:
        break;
    }
  }
  return Run<WideRecord>(plan, options, ex, cancel, stats);
}

}  // namespace icp::groupby
