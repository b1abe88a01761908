// Runtime SIMD capability dispatch.
//
// The vectorised tokeniser kernels (simd_classify.cpp) are compiled with
// per-function target attributes, so one binary carries the AVX2 and
// scalar paths and picks one at runtime. Policy:
//
//   1. SEQRTG_DISABLE_AVX2=1 in the environment forces the scalar path —
//      despite the historical name it disables *all* SIMD, which is what
//      the differential tests and the CI scalar-fallback job need: the
//      scalar path must produce byte-identical token streams on its own.
//   2. Otherwise AVX2 when the CPU supports it, else scalar.
//
// The decision is made once and cached; tests that need to pin a specific
// level in-process use override_simd_level(), which takes precedence over
// both the environment and the CPU probe.
#pragma once

#include <cstdint>

namespace seqrtg::util {

enum class SimdLevel : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,  // 256-bit kernels
};

/// Raw probe: best level this CPU supports, ignoring environment and
/// overrides. Stable for the process lifetime.
SimdLevel detect_simd_level();

/// The level the hot paths should use right now: the test override if one
/// is set, else the cached environment/CPU decision.
SimdLevel simd_level();

/// Test hook: pin the dispatch to `level` process-wide (levels above what
/// the CPU supports are clamped down). Pass reset_simd_override() to return
/// to the environment/CPU decision.
void override_simd_level(SimdLevel level);
void reset_simd_override();

/// "avx2" | "scalar" (metric labels, /healthz, bench host metadata).
const char* simd_level_name(SimdLevel level);

}  // namespace seqrtg::util
