// AVX2+FMA lane-engine instantiations: 4 x binary64 / 8 x binary32 per
// YMM register.
//
// Compiled with -mavx2 -mfma (per-source options set by CMake when the
// toolchain targets x86-64), so this is the only TU allowed to emit VEX
// instructions.  Callers must gate entry on support::cpu_features()
// .avx2_usable() — run_batch does, via simd_engine().  When the build
// does not enable AVX2 this TU compiles to nothing and the entry points
// are never referenced (bytecode.cpp guards them with GPUDIFF_SIMD_AVX2).
//
// State contract: the vector state stays inside this TU.  Every exit from
// an entry point (return, trap return, exception unwind) hands back clean
// upper-YMM state, and MXCSR is never written.  Dirty upper halves make
// every later SSE instruction on the thread pay a merge penalty, and the
// compiler's automatic vzeroupper insertion does not cover every return
// path of the engine (with GCC 12 the state came back dirty after every
// group), so the entry points clear it explicitly.
// BytecodeLanes.EntryLeavesVectorStateClean (tests/bytecode_test.cpp)
// locks this.

#include "vgpu/simd.hpp"

#if GPUDIFF_SIMD_AVX2_TU

#include "vgpu/lane_engine.hpp"

namespace gpudiff::vgpu::lane {

namespace {

/// Issues VZEROUPPER when the entry point's scope ends, however it ends.
/// It lives here, not in a baseline TU: VZEROUPPER is itself a VEX
/// instruction and would fault on a host without AVX.
struct ZeroUpperOnExit {
  ZeroUpperOnExit() = default;
  ZeroUpperOnExit(const ZeroUpperOnExit&) = delete;
  ZeroUpperOnExit& operator=(const ZeroUpperOnExit&) = delete;
  ~ZeroUpperOnExit() { _mm256_zeroupper(); }
};

}  // namespace

bool run_group_avx2_64(const BytecodeProgram& bp, const KernelArgs* inputs,
                       ExecContext& ctx, RunResult* out) {
  const ZeroUpperOnExit clean;
  return run_group<simd::Avx2Lanes<double>>(bp, inputs, ctx, out);
}

bool run_group_avx2_32(const BytecodeProgram& bp, const KernelArgs* inputs,
                       ExecContext& ctx, RunResult* out) {
  const ZeroUpperOnExit clean;
  return run_group<simd::Avx2Lanes<float>>(bp, inputs, ctx, out);
}

}  // namespace gpudiff::vgpu::lane

#endif  // GPUDIFF_SIMD_AVX2_TU
