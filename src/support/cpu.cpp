#include "support/cpu.hpp"

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

}  // namespace gpudiff::support
