#pragma once
// Host CPU capability detection and the GPUDIFF_SIMD execution override.
//
// The bytecode VM's lane-parallel engine (vgpu/bytecode_simd*.cpp) has an
// AVX2 backend that must only be entered when the host actually supports
// it: AVX2 + FMA in cpuid, plus OS-managed YMM state (OSXSAVE/XGETBV).
// cpu_features() answers that once per process.
//
// GPUDIFF_SIMD selects the engine explicitly:
//   off     — the plain one-input-at-a-time interpreter loop
//   scalar  — the lane engine with the portable (no-intrinsics) backend,
//             natural widths (4 x double / 8 x float)
//   scalar1 — the lane engine at width 1 (the pure reference path)
//   avx2    — the AVX2 backend (fails fast when unusable)
// Unset means auto: avx2 when compiled in and usable, otherwise off.
// Every choice is bit-identical by contract; the override exists for
// differential testing and for pinning CI legs.

#include <cstdint>
#include <string>

namespace gpudiff::support {

struct CpuFeatures {
  bool avx2 = false;     ///< cpuid leaf 7 EBX bit 5
  bool fma = false;      ///< cpuid leaf 1 ECX bit 12
  bool os_ymm = false;   ///< OSXSAVE set and XCR0 enables XMM+YMM state
  bool xinuse = false;   ///< OSXSAVE set and XGETBV(1) supported (leaf 0DH.1 EAX bit 2)

  /// The AVX2 lane backend needs all three (it uses FMA for the exactness
  /// probes and 256-bit state throughout).
  bool avx2_usable() const noexcept { return avx2 && fma && os_ymm; }

  std::string to_string() const;
};

/// Host features, probed once per process (always all-false off x86-64).
const CpuFeatures& cpu_features() noexcept;

/// Whether the upper halves of the YMM registers are in use on the calling
/// thread: XINUSE bit 2, read with XGETBV(ECX=1).  Dirty upper state makes
/// every later SSE instruction pay a merge penalty, so no execution engine
/// may return with it (tests/bytecode_test.cpp checks).  Unknown when the
/// CPU cannot report XINUSE (cpu_features().xinuse is false).
enum class UpperYmm : std::uint8_t { Unknown, Clean, Dirty };
UpperYmm upper_ymm_state() noexcept;

/// Parsed GPUDIFF_SIMD value.  Auto when the variable is unset or empty.
enum class SimdOverride : std::uint8_t { Auto, Off, Scalar, Scalar1, Avx2 };

/// Read GPUDIFF_SIMD once (cached).  Throws std::invalid_argument on an
/// unrecognized value — a typo must not silently change the engine.
SimdOverride simd_override();

/// Replace the cached override (tests; process-wide).
void set_simd_override(SimdOverride mode) noexcept;

const char* to_string(SimdOverride mode) noexcept;

}  // namespace gpudiff::support
