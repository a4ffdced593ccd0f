// hipcc CUDA-compat math binding ("hip-cuda-compat-sim").
//
// HIPIFY-converted sources call unqualified libm names that hipcc resolves
// through its CUDA-compatibility wrapper layer rather than binding OCML
// directly (the numerical delta the paper measured but left as future work;
// DESIGN.md documents this as a *model*).  The wrapper passes most calls
// through to OCML verbatim; the modeled differences:
//
//  * fmod — wrapper canonicalizes results, flushing subnormal remainders to
//    (signed) zero.  This produces the extra Number-vs-Zero discrepancies of
//    paper Table VII (20 per level vs 10 for native HIP).
//  * pow — wrapper composes exp(y*log|x|) without the double-double product
//    correction OCML applies, drifting by up to a few hundred ULP when the
//    exponent y*log|x| is large.

#include <cmath>

#include "vmath/mathlib.hpp"
#include "vmath/vendor_common.hpp"
#include "vmath/vendor_tables.hpp"

namespace gpudiff::vmath {

namespace {

double compat_fmod(double x, double y) noexcept {
  const double r = core::fmod_exact(x, y);
  if (fp::is_subnormal_bits(r)) return fp::copysign_bits(0.0, r);
  return r;
}

float compat_fmodf(float x, float y) noexcept {
  const float r = core::fmod_exact(x, y);
  if (fp::is_subnormal_bits(r)) return fp::copysign_bits(0.0f, r);
  return r;
}

double compat_pow(double x, double y) noexcept {
  using core::PolyScheme;
  // Same special-case ladder as the shared pow, then the uncorrected
  // composition.  Delegate specials by checking whether the accurate pow
  // short-circuits (finite path detection mirrors core::pow64).
  if (y == 0.0 || x == 1.0 || fp::is_nan_bits(x) || fp::is_nan_bits(y) ||
      fp::is_inf_bits(x) || fp::is_inf_bits(y) || fp::is_zero_bits(x))
    return core::pow64(x, y, PolyScheme::Estrin);
  double sign = 1.0;
  const double ax = fp::abs_bits(x);
  if (fp::sign_bit(x)) {
    const double t = core::trunc_exact(y);
    const bool is_int = fp::abs_bits(y) >= 0x1p52 || t == y;
    if (!is_int) return fp::quiet_nan<double>();
    const double half = t * 0.5;
    const bool odd = fp::abs_bits(y) < 0x1p53 && core::trunc_exact(half) != half;
    if (odd) sign = -1.0;
  }
  return sign * core::exp64(y * core::log64(ax, PolyScheme::Estrin),
                            PolyScheme::Estrin);
}

float compat_powf(float x, float y) noexcept {
  return static_cast<float>(compat_pow(static_cast<double>(x), static_cast<double>(y)));
}

}  // namespace

const MathLib& hip_cuda_compat() {
  static const MathLib lib = [] {
    Fn64 f64 = detail::amd_table64();
    Fn32 f32 = detail::amd_table32();
    f64.fmod_ = compat_fmod;
    f64.pow_ = compat_pow;
    f32.fmod_ = compat_fmodf;
    f32.pow_ = compat_powf;
    return MathLib("hip-cuda-compat-sim", SymbolStyle::HipCudaCompat, f64, f32,
                   /*fp32_call_cycles=*/24);
  }();
  return lib;
}

const MathLib& hip_cuda_compat_native() {
  // Fast-math binding for HIPIFY-converted sources: the native_* FP32
  // substitutions stack on top of the CUDA-compat wrapper layer.
  static const MathLib lib = [] {
    Fn64 f64 = detail::amd_table64();
    f64.fmod_ = compat_fmod;
    f64.pow_ = compat_pow;
    Fn32 f32 = detail::amd_native_table32();
    f32.fmod_ = compat_fmodf;
    f32.pow_ = compat_powf;
    return MathLib("hip-cuda-compat-native-sim", SymbolStyle::HipCudaCompat, f64, f32,
                   /*fp32_call_cycles=*/6);
  }();
  return lib;
}

}  // namespace gpudiff::vmath
