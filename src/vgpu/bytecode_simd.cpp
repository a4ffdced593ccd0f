// Portable lane-engine instantiations and SIMD engine resolution.
//
// This TU is compiled with the project's baseline flags (no AVX2), so the
// GenericLanes instantiations here run on every host and serve as the
// always-available reference for the differential tests.  The AVX2
// backend lives in bytecode_simd_avx2.cpp, compiled with -mavx2 -mfma and
// entered only behind the runtime cpuid gate below.

#include <stdexcept>

#include "support/cpu.hpp"
#include "vgpu/fpu.hpp"
#include "vgpu/lane_engine.hpp"

namespace gpudiff::vgpu {

namespace lane {

namespace {

template <typename T>
T call_one(const vmath::MathLib& lib, ir::MathFn fn, const fp::FpEnv& env,
           T a, T b, fp::ExceptionFlags& ef) {
  T r;
  if constexpr (sizeof(T) == 4) {
    r = lib.call32(fn, a, b);
  } else {
    r = lib.call64(fn, a, b);
  }
  Fpu<T> fpu(env, ef);
  const bool non_nan = !fp::is_nan_bits(a) && !fp::is_nan_bits(b);
  const bool finite = fp::is_finite_bits(a) && fp::is_finite_bits(b);
  fpu.note_call_result(r, non_nan, finite);
  return fp::apply_ftz(r, env, &ef);
}

template <typename V>
void grow(V& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

}  // namespace

double fpu_mul(const fp::FpEnv& env, double a, double b,
               fp::ExceptionFlags& ef) noexcept {
  return Fpu<double>(env, ef).mul(a, b);
}

float fpu_mul(const fp::FpEnv& env, float a, float b,
              fp::ExceptionFlags& ef) noexcept {
  return Fpu<float>(env, ef).mul(a, b);
}

double fpu_div(const fp::FpEnv& env, double a, double b,
               fp::ExceptionFlags& ef) noexcept {
  return Fpu<double>(env, ef).div(a, b);
}

float fpu_div(const fp::FpEnv& env, float a, float b,
              fp::ExceptionFlags& ef) noexcept {
  return Fpu<float>(env, ef).div(a, b);
}

double fpu_call(const vmath::MathLib& lib, ir::MathFn fn, const fp::FpEnv& env,
                double a, double b, fp::ExceptionFlags& ef) {
  return call_one(lib, fn, env, a, b, ef);
}

float fpu_call(const vmath::MathLib& lib, ir::MathFn fn, const fp::FpEnv& env,
               float a, float b, fp::ExceptionFlags& ef) {
  return call_one(lib, fn, env, a, b, ef);
}

void size_lane_scratch(const BytecodeProgram& bp, int width,
                       ExecContext::LaneScratch& ls) {
  const auto w = static_cast<std::size_t>(width);
  const std::size_t slots = detail::VmAccess::array_params(bp).size() * w;
  const std::size_t params =
      static_cast<std::size_t>(detail::VmAccess::num_params(bp)) * w;
  const std::size_t regs =
      static_cast<std::size_t>(detail::VmAccess::num_regs(bp)) * w;
  if (bp.precision() == ir::Precision::FP32) {
    grow(ls.regs32, regs);
    grow(ls.args32, params);
    grow(ls.ints_fp32, params);
    grow(ls.base32, slots);
    grow(ls.arrays32, slots * ir::kArrayExtent);
    grow(ls.slot_epoch32, slots);
  } else {
    grow(ls.regs64, regs);
    grow(ls.args64, params);
    grow(ls.ints_fp64, params);
    grow(ls.base64, slots);
    grow(ls.arrays64, slots * ir::kArrayExtent);
    grow(ls.slot_epoch64, slots);
  }
  grow(ls.ints, params);
}

bool run_group_generic_w1_64(const BytecodeProgram& bp, const KernelArgs* inputs,
                             ExecContext& ctx, RunResult* out) {
  return run_group<simd::GenericLanes<double, 1>>(bp, inputs, ctx, out);
}

bool run_group_generic_w1_32(const BytecodeProgram& bp, const KernelArgs* inputs,
                             ExecContext& ctx, RunResult* out) {
  return run_group<simd::GenericLanes<float, 1>>(bp, inputs, ctx, out);
}

bool run_group_generic_64(const BytecodeProgram& bp, const KernelArgs* inputs,
                          ExecContext& ctx, RunResult* out) {
  return run_group<simd::GenericLanes<double, 4>>(bp, inputs, ctx, out);
}

bool run_group_generic_32(const BytecodeProgram& bp, const KernelArgs* inputs,
                          ExecContext& ctx, RunResult* out) {
  return run_group<simd::GenericLanes<float, 8>>(bp, inputs, ctx, out);
}

}  // namespace lane

SimdEngine simd_engine() {
  switch (support::simd_override()) {
    case support::SimdOverride::Off:
      return SimdEngine::Off;
    case support::SimdOverride::Scalar:
      return SimdEngine::Scalar;
    case support::SimdOverride::Scalar1:
      return SimdEngine::Scalar1;
    case support::SimdOverride::Avx2:
#if defined(GPUDIFF_SIMD_AVX2)
      if (support::cpu_features().avx2_usable()) return SimdEngine::Avx2;
      throw std::runtime_error(
          "GPUDIFF_SIMD=avx2: host CPU/OS lacks AVX2+FMA with YMM state (" +
          support::cpu_features().to_string() + ")");
#else
      throw std::runtime_error(
          "GPUDIFF_SIMD=avx2: this binary was built without AVX2 support");
#endif
    case support::SimdOverride::Auto:
      break;
  }
#if defined(GPUDIFF_SIMD_AVX2)
  if (support::cpu_features().avx2_usable()) return SimdEngine::Avx2;
#endif
  return SimdEngine::Off;
}

const char* to_string(SimdEngine engine) noexcept {
  switch (engine) {
    case SimdEngine::Off: return "off";
    case SimdEngine::Scalar1: return "scalar1";
    case SimdEngine::Scalar: return "scalar";
    case SimdEngine::Avx2: return "avx2";
  }
  return "?";
}

}  // namespace gpudiff::vgpu
