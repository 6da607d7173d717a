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

inline void Fold(Accumulator& acc, std::uint64_t code, bool valid) {
  acc.rows += 1;
  if (valid) {
    acc.count += 1;
    acc.sum += code;
    if (code < acc.min) acc.min = code;
    if (code > acc.max) acc.max = code;
  }
}

inline void Merge(Accumulator& into, const Accumulator& from) {
  into.rows += from.rows;
  into.count += from.count;
  into.sum += from.sum;
  if (from.min < into.min) into.min = from.min;
  if (from.max > into.max) into.max = from.max;
}

// One worker slot's pass-1 state: the local aggregation table plus the
// per-partition spill buffers. Only its owning slot touches it during the
// region (ParallelExecutor slot contract), so there is no synchronization.
struct LocalState {
  bool direct = false;
  std::size_t capacity = 0;  // hash slots; 0 = pure-spill mode
  std::size_t size = 0;
  std::size_t max_size = 0;
  std::vector<std::uint64_t> keys;
  std::vector<Accumulator> accs;
  std::vector<std::vector<Word>> spill;
  std::uint64_t local_hits = 0;
  std::uint64_t spilled_rows = 0;
};

// The local table slot for `code`, or nullptr when the row must spill
// (pure-spill mode, or an open-addressed table at its load-factor bound
// seeing a new key).
inline Accumulator* TableSlot(LocalState& st, std::uint64_t code) {
  if (st.direct) return &st.accs[code];
  if (st.capacity == 0) return nullptr;
  const std::size_t mask = st.capacity - 1;
  std::size_t i = HashCode(code, mask);
  while (true) {
    if (st.keys[i] == code) return &st.accs[i];
    if (st.keys[i] == kEmptyKey) {
      if (st.size >= st.max_size) return nullptr;
      st.keys[i] = code;
      ++st.size;
      return &st.accs[i];
    }
    i = (i + 1) & mask;
  }
}

// Injected-failure latch shared by both regions; first error wins.
enum InjectedError : int { kNone = 0, kSpillInjected = 1, kMergeInjected = 2 };

struct Partial {
  std::uint64_t code = 0;
  Accumulator acc;
};

}  // namespace

StatusOr<std::vector<std::pair<std::uint64_t, Accumulator>>> Execute(
    const Input& in, const Options& options, ParallelExecutor& ex,
    const CancelContext* cancel, Stats* stats) {
  ICP_CHECK(in.group_codes.present());
  ICP_CHECK(in.filter != nullptr);
  ICP_CHECK_GE(options.radix_bits, 0);
  std::vector<std::pair<std::uint64_t, Accumulator>> results;
  if (in.num_codes == 0 || in.num_rows == 0) return results;

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
  const Word* fwords = filter->words();
  const Word* vwords = validity != nullptr ? validity->words() : nullptr;
  const std::size_t num_segments = filter->num_segments();

  // Bit-parallel liveness: the passing-row and non-NULL-row totals come
  // from the registry popcounts, and an all-dead filter exits before any
  // per-row work.
  const kern::KernelOps& ops = kern::Ops();
  const std::uint64_t passing = ops.popcount_words(fwords, num_segments);
  if (passing == 0) return results;
  if (vwords != nullptr &&
      ops.popcount_and(fwords, vwords, num_segments) == passing) {
    // No NULL agg value passes the filter: drop the per-row validity test
    // from the scatter loop.
    vwords = nullptr;
  }

  // Radix geometry: partitions are contiguous code ranges (high bits of
  // the code), so per-partition merge output concatenates in code order.
  const int group_bits = BitsFor(in.num_codes - 1);
  const int shift = std::max(0, group_bits - options.radix_bits);
  const std::size_t num_partitions =
      static_cast<std::size_t>((in.num_codes - 1) >> shift) + 1;
  const bool has_agg = in.agg_codes.present();
  const int agg_bits = has_agg ? in.agg_bits : 0;
  const bool one_word_spill = group_bits + agg_bits + 1 <= kWordBits;

  // Local-table mode from the per-slot budget: direct-indexed when the
  // whole dictionary fits, open-addressed otherwise, pure spill when not
  // even a minimal hash table fits.
  const std::size_t budget = options.local_table_bytes;
  const bool direct = in.num_codes * sizeof(Accumulator) <= budget;
  std::size_t capacity = 0;
  if (!direct) {
    constexpr std::size_t kEntryBytes =
        sizeof(Accumulator) + sizeof(std::uint64_t);
    std::size_t cap = std::size_t{1} << 3;
    while (cap * 2 * kEntryBytes <= budget) cap *= 2;
    if (cap * kEntryBytes <= budget) capacity = cap;
  }
  const std::size_t table_bytes =
      direct ? in.num_codes * sizeof(Accumulator)
             : capacity * (sizeof(Accumulator) + sizeof(std::uint64_t));

  const int slots = ex.max_slots();
  ICP_CHECK_GE(slots, 1);
  // Pass-1 local tables plus the merge phase's dense accumulators (the
  // partition ranges are disjoint, so they sum to num_codes entries).
  const std::size_t scratch =
      static_cast<std::size_t>(slots) * table_bytes +
      in.num_codes * sizeof(Accumulator);
  if (!ex.AccountScratch(scratch)) {
    return Status::ResourceExhausted(
        "group-by scratch budget exhausted (local tables + merge "
        "accumulators)");
  }

  std::vector<LocalState> locals(static_cast<std::size_t>(slots));
  for (LocalState& st : locals) {
    st.direct = direct;
    st.capacity = capacity;
    if (direct) {
      st.accs.resize(in.num_codes);
    } else if (capacity != 0) {
      st.keys.assign(capacity, kEmptyKey);
      st.accs.resize(capacity);
      st.max_size = capacity - capacity / 4;
    }
    st.spill.resize(num_partitions);
  }

  std::atomic<int> injected{kNone};

  {
    ICP_OBS_TRACE_SPAN("groupby.pass", 0);
    ex.ParallelFor(
        num_segments, cancel,
        [&](int slot, std::size_t begin, std::size_t end) {
          LocalState& st = locals[static_cast<std::size_t>(slot)];
          // order: relaxed — first-injection latch; the region barrier
          // orders it before the post-phase read.
          if (injected.load(std::memory_order_relaxed) != kNone) return;
          std::uint64_t group_buf[kWordBits];
          std::uint64_t agg_buf[kWordBits] = {};
          // cancellation: exempt — the executor polls the context
          // between subranges (per morsel / per cancel batch); one
          // subrange is the cancellation granularity of this pass.
          for (std::size_t seg = begin; seg < end; ++seg) {
            Word w = fwords[seg];
            if (w == 0) continue;  // dead 64-row segment: no per-row work
            const Word vw = vwords != nullptr ? vwords[seg] : ~Word{0};
            const std::size_t row0 = seg * kWordBits;
            const std::size_t rows =
                std::min<std::size_t>(kWordBits, in.num_rows - row0);
            in.group_codes.Read(row0, rows, group_buf);
            if (has_agg) in.agg_codes.Read(row0, rows, agg_buf);
            while (w != 0) {
              const int bit = std::countl_zero(w);
              w &= ~(Word{1} << (kWordBits - 1 - bit));
              const std::uint64_t g = group_buf[bit];
              const bool valid =
                  ((vw >> (kWordBits - 1 - bit)) & Word{1}) != 0;
              const std::uint64_t a = agg_buf[bit];
              if (Accumulator* acc = TableSlot(st, g); acc != nullptr) {
                Fold(*acc, a, valid);
                ++st.local_hits;
                continue;
              }
              if (ICP_FAILPOINT("groupby/spill")) {
                // order: relaxed — injection latch; read post-barrier.
                injected.store(kSpillInjected, std::memory_order_relaxed);
                return;
              }
              std::vector<Word>& bucket = st.spill[g >> shift];
              if (one_word_spill) {
                bucket.push_back((g << (agg_bits + 1)) | (a << 1) |
                                 (valid ? 1 : 0));
              } else {
                bucket.push_back((g << 1) | (valid ? 1 : 0));
                bucket.push_back(a);
              }
              ++st.spilled_rows;
            }
          }
        });
  }
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  // order: relaxed — read after ParallelFor joined; the region barrier
  // ordered every worker's store.
  if (injected.load(std::memory_order_relaxed) == kSpillInjected) {
    return Status::Internal("injected group-by spill failure");
  }

  // Drain each slot's local table into per-partition partial lists so the
  // merge region can fold them without touching foreign hash tables.
  std::vector<std::vector<Partial>> partials(num_partitions);
  std::uint64_t merge_entries = 0;
  for (const LocalState& st : locals) {
    if (st.direct) {
      for (std::uint64_t c = 0; c < in.num_codes; ++c) {
        if (st.accs[c].rows == 0) continue;
        partials[c >> shift].push_back(Partial{c, st.accs[c]});
        ++merge_entries;
      }
    } else {
      for (std::size_t i = 0; i < st.capacity; ++i) {
        if (st.keys[i] == kEmptyKey) continue;
        partials[st.keys[i] >> shift].push_back(Partial{st.keys[i],
                                                        st.accs[i]});
        ++merge_entries;
      }
    }
  }

  std::vector<std::vector<std::pair<std::uint64_t, Accumulator>>> out_parts(
      num_partitions);
  const std::uint64_t agg_mask = LowMask(agg_bits);
  {
    ICP_OBS_TRACE_SPAN("groupby.merge", 0);
    ex.ParallelFor(
        num_partitions, cancel,
        [&](int, std::size_t begin, std::size_t end) {
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
            std::vector<Accumulator> dense(
                static_cast<std::size_t>(hi - lo));
            for (const Partial& pt : partials[p]) {
              Merge(dense[static_cast<std::size_t>(pt.code - lo)], pt.acc);
            }
            for (const LocalState& st : locals) {
              const std::vector<Word>& bucket = st.spill[p];
              if (one_word_spill) {
                for (const Word w : bucket) {
                  const std::uint64_t g = w >> (agg_bits + 1);
                  Fold(dense[static_cast<std::size_t>(g - lo)],
                       (w >> 1) & agg_mask, (w & 1) != 0);
                }
              } else {
                for (std::size_t i = 0; i + 1 < bucket.size(); i += 2) {
                  const std::uint64_t g = bucket[i] >> 1;
                  Fold(dense[static_cast<std::size_t>(g - lo)],
                       bucket[i + 1], (bucket[i] & 1) != 0);
                }
              }
            }
            std::vector<std::pair<std::uint64_t, Accumulator>>& out =
                out_parts[p];
            for (std::uint64_t c = lo; c < hi; ++c) {
              const Accumulator& acc =
                  dense[static_cast<std::size_t>(c - lo)];
              if (acc.rows != 0) out.emplace_back(c, acc);
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

  std::size_t total_groups = 0;
  for (const auto& part : out_parts) total_groups += part.size();
  results.reserve(total_groups);
  for (auto& part : out_parts) {
    for (auto& entry : part) {
      results.push_back(std::move(entry));
    }
  }

  std::uint64_t local_hits = 0;
  std::uint64_t spilled_rows = 0;
  for (const LocalState& st : locals) {
    local_hits += st.local_hits;
    spilled_rows += st.spilled_rows;
  }
  ICP_OBS_ADD(GroupByLocalHits, local_hits);
  ICP_OBS_ADD(GroupBySpilledRows, spilled_rows);
  ICP_OBS_ADD(GroupByMergeEntries, merge_entries);
  ICP_OBS_ADD(GroupByPartitionsMerged, num_partitions);
  if (stats != nullptr) {
    stats->local_hits += local_hits;
    stats->spilled_rows += spilled_rows;
    stats->merge_entries += merge_entries;
    stats->partitions += num_partitions;
    stats->groups += results.size();
    stats->hashed = !direct && capacity != 0;
  }
  return results;
}

}  // namespace icp::groupby
