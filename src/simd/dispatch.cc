#include "simd/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/obs.h"
#include "simd/agg_kernels.h"
#include "simd/vbp_pospopcnt.h"

namespace icp::kern {
namespace {

const KernelOps kScalarOps = {
    .name = "scalar",
    .vbp_bit_sums = VbpBitSumsScalar,
    .vbp_bit_sums_quads = VbpBitSumsQuadsScalar,
    .popcount_words = PopcountWordsScalar,
    .popcount_and = PopcountAndScalar,
    .combine_words = CombineWordsScalar,
    .masked_popcount = MaskedPopcountScalar,
    .hbp_sum = HbpSumScalar,
    .vbp_extreme_fold = VbpExtremeFoldScalar,
    .hbp_extreme_fold = HbpExtremeFoldScalar,
    .vbp_scan = VbpScanKernel,
    .hbp_scan = HbpScanKernel,
    .vbp_pack = VbpPackScalar,
    .vbp_unpack = VbpUnpackScalar,
};

// The CSA trick only pays off on popcount-dominated loops; the compare/
// mask-dominated slots reuse the scalar kernels (agg_kernels.h explains).
const KernelOps kSse64Ops = {
    .name = "sse",
    .vbp_bit_sums = VbpBitSumsCsa64,
    .vbp_bit_sums_quads = VbpBitSumsQuadsCsa64,
    .popcount_words = PopcountWordsCsa64,
    .popcount_and = PopcountAndCsa64,
    .combine_words = CombineWordsScalar,
    .masked_popcount = MaskedPopcountScalar,
    .hbp_sum = HbpSumScalar,
    .vbp_extreme_fold = VbpExtremeFoldScalar,
    .hbp_extreme_fold = HbpExtremeFoldScalar,
    .vbp_scan = VbpScanKernel,
    .hbp_scan = HbpScanKernel,
    .vbp_pack = VbpPackScalar,
    .vbp_unpack = VbpUnpackScalar,
};

#if defined(ICP_POSPOPCNT_HAVE_AVX2)
// vbp_bit_sums (lanes==1 seg-major VBP SUM) keeps the Csa64 kernel on
// this tier: no vector kernel for that slot exists yet. The other
// lanes-parameterised slots run vector code on both packings
// (agg_kernels.h lists which).
//
// When the build itself targets AVX-512 VPOPCNTDQ (-march=native on a
// capable host), the compiler vectorizes the plain loops in
// PopcountWordsScalar/PopcountAndScalar with vpopcntq %zmm — 8 words per
// instruction — which measures ~1.7x faster than 256-bit Harley–Seal
// (see BENCH_kernels.json). The flat-popcount slots keep the compiler's
// code in that configuration; the positional kernels still win on AVX2
// because their per-plane accumulation defeats auto-vectorization. The
// avx512 tier below owns vpopcntq explicitly, independent of build flags.
const KernelOps kAvx2Ops = {
    .name = "avx2",
    .vbp_bit_sums = VbpBitSumsCsa64,
    .vbp_bit_sums_quads = VbpBitSumsQuadsAvx2,
#if defined(__AVX512VPOPCNTDQ__)
    .popcount_words = PopcountWordsScalar,
    .popcount_and = PopcountAndScalar,
#else
    .popcount_words = PopcountWordsAvx2,
    .popcount_and = PopcountAndAvx2,
#endif
    .combine_words = CombineWordsAvx2,
    .masked_popcount = MaskedPopcountAvx2,
    .hbp_sum = HbpSumAvx2,
    .vbp_extreme_fold = VbpExtremeFoldAvx2,
    .hbp_extreme_fold = HbpExtremeFoldAvx2,
    .vbp_scan = VbpScanAvx2,
    .hbp_scan = HbpScanAvx2,
    // No 256-bit segment transpose has been written; the scalar one runs.
    .vbp_pack = VbpPackScalar,
    .vbp_unpack = VbpUnpackScalar,
};
#endif

#if defined(ICP_POSPOPCNT_HAVE_AVX512)
// The extreme folds are 512 bits wide for lanes==1 only; for lanes==4
// they run the AVX2 kernels (agg_kernels.h documents why).
const KernelOps kAvx512Ops = {
    .name = "avx512",
    .vbp_bit_sums = VbpBitSumsCsa64,
    .vbp_bit_sums_quads = VbpBitSumsQuadsAvx512,
    .popcount_words = PopcountWordsAvx512,
    .popcount_and = PopcountAndAvx512,
    .combine_words = CombineWordsAvx512,
    .masked_popcount = MaskedPopcountAvx512,
    .hbp_sum = HbpSumAvx512,
    .vbp_extreme_fold = VbpExtremeFoldAvx512,
    .hbp_extreme_fold = HbpExtremeFoldAvx512,
    .vbp_scan = VbpScanAvx512,
    .hbp_scan = HbpScanAvx512,
    .vbp_pack = VbpPackAvx512,
    .vbp_unpack = VbpUnpackAvx512,
};
#endif

// -1 = no programmatic override; otherwise a Tier value.
std::atomic<int> g_forced_tier{-1};

Tier ClampToSupported(Tier tier) {
  return static_cast<int>(tier) > static_cast<int>(MaxSupportedTier())
             ? MaxSupportedTier()
             : tier;
}

Tier DetectStartupTier() {
  Tier tier = MaxSupportedTier();
  // getenv is read exactly once, from the magic-static initializer in
  // StartupTier(), before any worker thread exists.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("ICP_FORCE_KERNEL")) {
    Tier forced;
    if (!ParseTier(env, &forced)) {
      std::fprintf(
          stderr,
          "icp: ignoring ICP_FORCE_KERNEL=%s (want scalar|sse|avx2|avx512)\n",
          env);
    } else if (static_cast<int>(forced) > static_cast<int>(tier)) {
      std::fprintf(stderr,
                   "icp: ICP_FORCE_KERNEL=%s unsupported on this CPU; "
                   "using %s\n",
                   env, TierName(tier));
    } else {
      tier = forced;
    }
  }
  return tier;
}

Tier StartupTier() {
  static const Tier tier = DetectStartupTier();
  return tier;
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse64:
      return "sse";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseTier(const char* name, Tier* out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    *out = Tier::kScalar;
  } else if (std::strcmp(name, "sse") == 0) {
    *out = Tier::kSse64;
  } else if (std::strcmp(name, "avx2") == 0) {
    *out = Tier::kAvx2;
  } else if (std::strcmp(name, "avx512") == 0) {
    *out = Tier::kAvx512;
  } else {
    return false;
  }
  return true;
}

Tier MaxSupportedTier() {
#if defined(ICP_POSPOPCNT_HAVE_AVX2)
  static const Tier max_tier = [] {
#if defined(ICP_POSPOPCNT_HAVE_AVX512)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vpopcntdq")) {
      return Tier::kAvx512;
    }
#endif
    return __builtin_cpu_supports("avx2") ? Tier::kAvx2 : Tier::kSse64;
  }();
  return max_tier;
#else
  return Tier::kSse64;
#endif
}

Tier EffectiveTier(Tier tier) {
  // Round-trip through the selected table's name so compile-time #if
  // fallbacks in OpsFor are reflected too, not just the cpuid clamp.
  Tier out = Tier::kScalar;
  ParseTier(OpsFor(tier).name, &out);
  return out;
}

Tier ActiveTier() {
  // order: relaxed — a self-contained int; callers only need the value,
  // no table state is published through the override.
  const int forced = g_forced_tier.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Tier>(forced);
  return StartupTier();
}

void ForceTier(std::optional<Tier> tier) {
  if (!tier.has_value()) {
    // order: relaxed — clearing the override; see ActiveTier's load.
    g_forced_tier.store(-1, std::memory_order_relaxed);
    return;
  }
  const Tier clamped = ClampToSupported(*tier);
  if (clamped != *tier) {
    // Surface the clamp: a harness forcing an unsupported tier would
    // otherwise silently measure (and report coverage for) a lower one.
    ICP_OBS_INCREMENT(KernForceClamped);
    std::fprintf(stderr,
                 "icp: ForceTier(%s) unsupported on this CPU; using %s\n",
                 TierName(*tier), TierName(clamped));
  }
  // order: relaxed — the tier tables are immutable statics; only the
  // selector index changes, so no ordering is needed.
  g_forced_tier.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

const KernelOps& Ops() {
  const KernelOps& ops = OpsFor(ActiveTier());
#if ICP_OBS
  // Counts the tier actually handed out (post-clamp), not the requested
  // one, so the counters agree with EffectiveTier-based reporting.
  Tier effective = Tier::kScalar;
  ParseTier(ops.name, &effective);
  switch (effective) {
    case Tier::kScalar:
      ICP_OBS_INCREMENT(KernDispatchScalar);
      break;
    case Tier::kSse64:
      ICP_OBS_INCREMENT(KernDispatchSse);
      break;
    case Tier::kAvx2:
      ICP_OBS_INCREMENT(KernDispatchAvx2);
      break;
    case Tier::kAvx512:
      ICP_OBS_INCREMENT(KernDispatchAvx512);
      break;
  }
#endif
  return ops;
}

const KernelOps& OpsFor(Tier tier) {
  switch (ClampToSupported(tier)) {
    case Tier::kScalar:
      return kScalarOps;
    case Tier::kSse64:
      return kSse64Ops;
    case Tier::kAvx2:
#if defined(ICP_POSPOPCNT_HAVE_AVX2)
      return kAvx2Ops;
#else
      return kSse64Ops;
#endif
    case Tier::kAvx512:
#if defined(ICP_POSPOPCNT_HAVE_AVX512)
      return kAvx512Ops;
#elif defined(ICP_POSPOPCNT_HAVE_AVX2)
      return kAvx2Ops;
#else
      return kSse64Ops;
#endif
  }
  return kScalarOps;
}

}  // namespace icp::kern
