// Grouped-aggregation strategy benchmark (google-benchmark).
//
// Measures Engine::ExecuteGroupBy end-to-end for both strategies — the
// naive per-code scan loop and the single-pass operator (src/groupby/) —
// over a dictionary group column at cardinalities 2^g for g in 0..24, on a
// 1-thread and a 4-thread engine (the single-pass operator's slots only
// contend with each other at more than one thread), unfiltered and with a
// filter passing 10% of the rows (`permille` 1000 and 100; the single-pass
// operator reads only the passing rows of each 64-row segment).
// The recorded series (BENCH_groupby.json, via tools/parse_bench.py
// --kernel-json) is the measurement behind ExecOptions::groupby_threshold's
// default: the crossover where the single-pass operator starts winning.
//
// The naive strategy's cost grows O(table x groups / 64) (one chunked
// scatter pass plus one aggregate kernel pass per code), so it is only
// registered up to g = 12, and at 1 thread; past the crossover the
// single-pass operator is the only strategy worth the machine time.
// items_per_second is wall-clock (UseRealTime); cpu_time counts only the
// calling thread, one of the 4-thread engine's slots.
//
// Tuple count defaults to 2^24 (the acceptance point for the crossover
// measurement); override with ICP_BENCH_TUPLES for smoke runs.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "engine/table.h"
#include "simd/dispatch.h"
#include "util/random.h"

namespace icp::bench {
namespace {

// True when this process can genuinely run `tier`; otherwise marks the run
// skipped so the JSON records why a row is missing (same idiom as
// bench_kernels).
bool RequireTier(benchmark::State& state, kern::Tier tier) {
  if (kern::EffectiveTier(tier) == tier) {
    return true;
  }
  state.SkipWithError("tier unsupported on this CPU");
  return false;
}

// A dictionary group column of 2^g uniform codes, a 7-bit aggregate
// column and a filter column z uniform in [0, 1000). Tables at n = 2^24
// run to hundreds of MB, so only the most
// recent cardinality is kept alive; the benchmark args are ordered
// g-major so each table is built once per strategy sweep.
constexpr std::int64_t kPermille = 1000;

struct Workload {
  std::size_t n = 0;
  int g = -1;
  Table table;
};

const Workload& GetWorkload(int g) {
  static Workload w;
  const std::size_t n = TupleCount(std::size_t{1} << 24);
  if (w.g == g && w.n == n) return w;
  Random rng(/*seed=*/1000 + static_cast<std::uint64_t>(g));
  const std::uint64_t cardinality = std::uint64_t{1} << g;
  std::vector<std::int64_t> groups(n);
  std::vector<std::int64_t> values(n);
  std::vector<std::int64_t> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    groups[i] = static_cast<std::int64_t>(rng.UniformInt(0, cardinality - 1));
    values[i] = static_cast<std::int64_t>(rng.UniformInt(0, 99));
    z[i] = static_cast<std::int64_t>(rng.UniformInt(0, kPermille - 1));
  }
  w = Workload{};
  w.n = n;
  w.g = g;
  ICP_CHECK(w.table
                .AddColumn("g", groups,
                           {.layout = Layout::kVbp, .dictionary = true})
                .ok());
  ICP_CHECK(
      w.table.AddColumn("v", values, {.layout = Layout::kVbp}).ok());
  ICP_CHECK(w.table.AddColumn("z", z, {.layout = Layout::kVbp}).ok());
  return w;
}

void RunGroupBy(benchmark::State& state, std::uint64_t threshold) {
  const auto tier = static_cast<kern::Tier>(state.range(0));
  if (!RequireTier(state, tier)) return;
  const int g = static_cast<int>(state.range(1));
  const Workload& w = GetWorkload(g);

  const std::int64_t permille = state.range(3);
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "v";
  if (permille < kPermille) {
    q.filter = FilterExpr::Compare("z", CompareOp::kLt, permille);
  }
  ExecOptions opts;
  opts.threads = static_cast<int>(state.range(2));
  opts.groupby_threshold = threshold;
  Engine engine(opts);

  kern::ForceTier(tier);
  for (auto _ : state) {
    auto r = engine.ExecuteGroupBy(w.table, q, "g");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r->size());
  }
  kern::ForceTier(std::nullopt);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.n));
  state.SetLabel(std::string("tier=") + kern::OpsFor(tier).name);
}

// Arguments g-major, so each table is built once per strategy sweep.
void GroupByArgs(benchmark::internal::Benchmark* b, int max_g,
                 std::initializer_list<int> tiers,
                 std::initializer_list<int> threads,
                 std::initializer_list<int> permilles) {
  b->ArgNames({"tier", "g", "threads", "permille"});
  for (const int g : {0, 2, 4, 8, 12, 16, 20, 24}) {
    if (g > max_g) break;
    for (const int tier : tiers) {
      for (const int t : threads) {
        for (const int p : permilles) b->Args({tier, g, t, p});
      }
    }
  }
}

// exercises: groupby single-pass operator
void BM_GroupBySinglePass(benchmark::State& state) {
  RunGroupBy(state, /*threshold=*/1);  // force single-pass
}
BENCHMARK(BM_GroupBySinglePass)
    ->Apply([](benchmark::internal::Benchmark* b) {
      GroupByArgs(b, 24, {0, 2, 3}, {1, 4}, {1000, 100});
    })
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// exercises: naive per-code strategy
void BM_GroupByNaive(benchmark::State& state) {
  RunGroupBy(state, /*threshold=*/std::numeric_limits<std::uint64_t>::max());
}
BENCHMARK(BM_GroupByNaive)
    ->Apply([](benchmark::internal::Benchmark* b) {
      GroupByArgs(b, 12, {0, 2}, {1}, {1000});
    })
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace icp::bench

BENCHMARK_MAIN();
