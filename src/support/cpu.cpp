#include "support/cpu.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#endif

namespace gpudiff::support {

namespace {

CpuFeatures probe() noexcept {
  CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  f.fma = (ecx & (1u << 12)) != 0;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  if (osxsave) {
    // XGETBV(0): bits 1 (XMM) and 2 (YMM) must both be OS-enabled.
    std::uint32_t lo, hi;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    f.os_ymm = (lo & 0x6) == 0x6;
    if (__get_cpuid_count(0xD, 1, &eax, &ebx, &ecx, &edx))
      f.xinuse = (eax & (1u << 2)) != 0;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
    f.avx2 = (ebx & (1u << 5)) != 0;
#endif
  return f;
}

SimdOverride parse_override(const char* value) {
  const std::string v = value == nullptr ? "" : value;
  if (v.empty()) return SimdOverride::Auto;
  if (v == "off") return SimdOverride::Off;
  if (v == "scalar") return SimdOverride::Scalar;
  if (v == "scalar1") return SimdOverride::Scalar1;
  if (v == "avx2") return SimdOverride::Avx2;
  throw std::invalid_argument(
      "GPUDIFF_SIMD: unknown value '" + v +
      "' (expected off, scalar, scalar1 or avx2)");
}

// SimdOverride + 1 so that 0 can mean "not yet resolved".
std::atomic<int> g_override{0};

}  // namespace

std::string CpuFeatures::to_string() const {
  std::string s;
  s += avx2 ? "avx2" : "no-avx2";
  s += fma ? "+fma" : "+no-fma";
  if (!os_ymm) s += "+no-os-ymm";
  return s;
}

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures features = probe();
  return features;
}

UpperYmm upper_ymm_state() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  if (!cpu_features().xinuse) return UpperYmm::Unknown;
  // XGETBV(1): XCR0 & XINUSE; bit 2 is the YMM_Hi128 state component.
  std::uint32_t lo, hi;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & 0x4) != 0 ? UpperYmm::Dirty : UpperYmm::Clean;
#else
  return UpperYmm::Unknown;
#endif
}

SimdOverride simd_override() {
  int cached = g_override.load(std::memory_order_acquire);
  if (cached != 0) return static_cast<SimdOverride>(cached - 1);
  const SimdOverride parsed = parse_override(std::getenv("GPUDIFF_SIMD"));
  g_override.store(static_cast<int>(parsed) + 1, std::memory_order_release);
  return parsed;
}

void set_simd_override(SimdOverride mode) noexcept {
  g_override.store(static_cast<int>(mode) + 1, std::memory_order_release);
}

const char* to_string(SimdOverride mode) noexcept {
  switch (mode) {
    case SimdOverride::Auto: return "auto";
    case SimdOverride::Off: return "off";
    case SimdOverride::Scalar: return "scalar";
    case SimdOverride::Scalar1: return "scalar1";
    case SimdOverride::Avx2: return "avx2";
  }
  return "?";
}

}  // namespace gpudiff::support
