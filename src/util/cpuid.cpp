#include "util/cpuid.hpp"

#include <atomic>
#include <cstdlib>

namespace seqrtg::util {

namespace {

SimdLevel probe_cpu() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

SimdLevel resolve_default() {
  const char* env = std::getenv("SEQRTG_DISABLE_AVX2");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    return SimdLevel::kScalar;
  }
  return probe_cpu();
}

/// kNoOverride in the high bits marks "no override active"; the low byte
/// otherwise carries the pinned SimdLevel.
constexpr std::uint32_t kNoOverride = 0xFFFFFFFFu;

std::atomic<std::uint32_t>& override_slot() {
  static std::atomic<std::uint32_t> slot{kNoOverride};
  return slot;
}

}  // namespace

SimdLevel detect_simd_level() {
  static const SimdLevel level = probe_cpu();
  return level;
}

SimdLevel simd_level() {
  const std::uint32_t ov = override_slot().load(std::memory_order_relaxed);
  if (ov != kNoOverride) return static_cast<SimdLevel>(ov);
  static const SimdLevel level = resolve_default();
  return level;
}

void override_simd_level(SimdLevel level) {
  if (level > detect_simd_level()) level = detect_simd_level();
  override_slot().store(static_cast<std::uint32_t>(level),
                        std::memory_order_relaxed);
}

void reset_simd_override() {
  override_slot().store(kNoOverride, std::memory_order_relaxed);
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      return "scalar";
  }
  return "scalar";
}

}  // namespace seqrtg::util
