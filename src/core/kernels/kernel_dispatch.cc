// Runtime ISA selection for the unpack and decode kernels. Detection runs
// once (first query): the AVX2 unit must have been built with real intrinsics
// (PARADISE_KERNEL_HAVE_AVX2, set by CMake alongside the per-file -mavx2),
// the CPU must report the feature, and the operator must not have forced the
// portable path with PARADISE_DISABLE_SIMD=1. Tests and benches pin the
// choice with ForceIsa() to compare the paths on one machine.
#include <atomic>
#include <cstdlib>

#include "core/kernels/consolidate_kernel.h"

namespace paradise::kernels {

namespace {

// -1 = not forced; otherwise the forced Isa value.
std::atomic<int> g_forced_isa{-1};

bool SimdDisabledByEnv() {
  const char* v = std::getenv("PARADISE_DISABLE_SIMD");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

Isa DetectIsa() {
  if (SimdDisabledByEnv()) return Isa::kScalar;
#if defined(PARADISE_KERNEL_HAVE_AVX2) && \
    (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

}  // namespace

std::string_view IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Isa ActiveIsa() {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  static const Isa detected = DetectIsa();
  return detected;
}

void ForceIsa(std::optional<Isa> isa) {
  g_forced_isa.store(isa.has_value() ? static_cast<int>(*isa) : -1,
                     std::memory_order_relaxed);
}

DecodeBatchFn ActiveDecodeBatch() {
  return ActiveIsa() == Isa::kAvx2 ? DecodeBatchAvx2 : DecodeBatchScalar;
}

UnpackBlockFn ActiveUnpackBlock() {
  return ActiveIsa() == Isa::kAvx2 ? UnpackBlockAvx2 : UnpackBlockScalar;
}

}  // namespace paradise::kernels
