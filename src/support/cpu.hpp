#pragma once
// Host CPU capability detection and vector-state probing.
//
// Nothing in the library selects code by CPU feature: every translation
// unit is built at the baseline ISA.  cpu_features() describes the host
// for benchmark logs, and upper_ymm_state() lets tests check that no
// execution path leaves the upper YMM halves dirty.

#include <cstdint>
#include <string>

namespace gpudiff::support {

struct CpuFeatures {
  bool avx2 = false;     ///< cpuid leaf 7 EBX bit 5
  bool fma = false;      ///< cpuid leaf 1 ECX bit 12
  bool os_ymm = false;   ///< OSXSAVE set and XCR0 enables XMM+YMM state
  bool xinuse = false;   ///< OSXSAVE set and XGETBV(1) supported (leaf 0DH.1 EAX bit 2)

  std::string to_string() const;
};

/// Host features, probed once per process (always all-false off x86-64).
const CpuFeatures& cpu_features() noexcept;

/// Whether the upper halves of the YMM registers are in use on the calling
/// thread: XINUSE bit 2, read with XGETBV(ECX=1).  Dirty upper state makes
/// every later SSE instruction pay a merge penalty, so no execution path
/// may return with it (tests/bytecode_test.cpp checks).  Unknown when the
/// CPU cannot report XINUSE (cpu_features().xinuse is false).
enum class UpperYmm : std::uint8_t { Unknown, Clean, Dirty };
UpperYmm upper_ymm_state() noexcept;

}  // namespace gpudiff::support
