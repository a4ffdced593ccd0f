// NVIDIA-sim device math library ("libdevice-sim").
//
// Models the algorithm family NVIDIA uses on V100-class targets: math
// functions synthesized from FP arithmetic and bit manipulation inline in
// SASS/PTX (the paper's Case Study 1 root-cause analysis).  Divergent
// algorithms relative to amd_math.cpp:
//
//  * fmod   — chunked division-based reduction (inexact once the exponent
//             gap between |x| and |y| exceeds 52 bits).        [Case Study 1]
//  * ceil/floor — fast path flushes results for inputs with unbiased
//             exponent below -126 (an FP32-tuned threshold reused in the
//             FP64 path), so ceil(1.5955e-125) == 0.           [Case Study 2]
//  * sin/cos/tan — two-constant Cody-Waite medium-range reduction: loses
//             accuracy when the argument falls very close to a multiple of
//             pi/2 (deep cancellation).
//  * cosh/sinh — direct 0.5*(e^x ± e^-x) composition, which overflows
//             prematurely in the band |x| in [709.78, 710.47].

#include "vmath/mathlib.hpp"
#include "vmath/vendor_common.hpp"
#include "vmath/vendor_tables.hpp"

namespace gpudiff::vmath {

namespace {

using core::PolyScheme;
using core::ReduceStyle;

double nv_sin(double x) noexcept { return core::sin64(x, ReduceStyle::CodyWaite2); }
double nv_cos(double x) noexcept { return core::cos64(x, ReduceStyle::CodyWaite2); }
double nv_tan(double x) noexcept { return core::tan64(x, ReduceStyle::CodyWaite2); }

// NVIDIA-like Horner evaluation of the shared exp/log cores.
double nv_exp(double x) noexcept { return core::exp64(x, PolyScheme::Horner); }
double nv_log(double x) noexcept { return core::log64(x, PolyScheme::Horner); }
double nv_tanh(double x) noexcept { return core::tanh64(x, PolyScheme::Horner); }
double nv_pow(double x, double y) noexcept {
  return core::pow64(x, y, PolyScheme::Horner);
}

/// True binary exponent, handling subnormals (ilogb semantics).
int ilogb_bits(double x) noexcept {
  const int raw = fp::raw_exponent(x);
  if (raw > 0) return raw - 1023;
  const std::uint64_t mant = fp::mantissa_field(x);
  return 63 - std::countl_zero(mant) - 1074;
}

/// Division-based fmod with a bounded unrolled reduction.  The reduction
/// loop is FMA-exact (each 52-bit quotient chunk subtracts exactly), but the
/// implementation only unrolls enough chunks to cover a 1024-bit exponent
/// gap.  Beyond that — |x| astronomically larger than |y|, e.g. Case Study
/// 1's fmod(1.59e+289, 1.58e-307) with a 1980-bit gap — the leftover gap is
/// closed with a single *unfused* multiply-subtract whose product rounding
/// throws away the low bits of the remainder, landing on a different
/// (deterministic) residue than OCML's exact integer algorithm.  Ordinary
/// argument pairs (gap <= 1024 bits) agree with OCML bit-for-bit, matching
/// the paper's observation that only 1 of 10 random inputs diverged.
double nv_fmod(double x, double y) noexcept {
  const double ax = fp::abs_bits(x);
  const double ay = fp::abs_bits(y);
  if (fp::is_nan_bits(x) || fp::is_nan_bits(y) || fp::is_inf_bits(x) ||
      fp::is_zero_bits(y))
    return fp::quiet_nan<double>();  // invalid
  if (fp::is_inf_bits(y) || ax < ay) return x;

  const int gap = ilogb_bits(ax) - ilogb_bits(ay);
  if (gap <= 1024)
    return fp::copysign_bits(core::fmod_exact(ax, ay), x);

  // Gap exceeds the unrolled range: one coarse mul-subtract step (rounds
  // once, granularity ~2^(ilogb(x)-52)), then the exact tail reduction.
  const int k = gap - 52;
  const double ays = core::scale_by_pow2(ay, k);  // exact pow-2 scale
  double q = core::trunc_exact(ax / ays);
  if (q < 1.0) q = 1.0;
  const double p = q * ays;  // rounds: the modeled precision loss
  double r = ax - p;         // cancellation exposes p's rounding error
  if (r < 0.0) r += ays;
  return fp::copysign_bits(core::fmod_exact(r, ay), x);
}

/// ceil with the modeled tiny-exponent fast path (DESIGN.md quirk #2):
/// nonzero |x| < 2^-126 returns signed zero instead of snapping to +-1.
double nv_ceil(double x) noexcept {
  if (fp::is_finite_bits(x) && !fp::is_zero_bits(x) &&
      fp::raw_exponent(x) < (-126 + fp::FloatTraits<double>::exponent_bias))
    return fp::copysign_bits(0.0, x);
  return core::ceil_exact(x);
}

double nv_floor(double x) noexcept {
  if (fp::is_finite_bits(x) && !fp::is_zero_bits(x) &&
      fp::raw_exponent(x) < (-126 + fp::FloatTraits<double>::exponent_bias))
    return fp::copysign_bits(0.0, x);
  return core::floor_exact(x);
}

/// Direct exponential composition: overflows as soon as exp() does
/// (x > 709.78), although true cosh only overflows past 710.47.
double nv_cosh(double x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  const double ax = fp::abs_bits(x);
  if (ax < 0x1p-27) return 1.0;
  const double t = nv_exp(ax);
  return 0.5 * t + 0.5 / t;
}

double nv_sinh(double x) noexcept {
  if (fp::is_nan_bits(x) || fp::is_inf_bits(x)) return x;
  const double ax = fp::abs_bits(x);
  if (ax < 0x1p-27) return x;
  const double t = nv_exp(ax);
  const double r = 0.5 * t - 0.5 / t;
  return fp::copysign_bits(r, x);
}

// FP32 trig: double-assisted reduction (CW2 medium path) but float-native
// polynomial kernels — the historical CUDA sinf/cosf strategy, accurate to
// ~1-2 ULP.  OCML promotes to double throughout (0.5 ULP), so the two
// diverge in the last ULP on a healthy fraction of live arguments: the
// Number-vs-Number baseline of the FP32 campaign (paper Table IX, O0 row).
float nv_kernel_sinf(double r) noexcept {
  const float s = static_cast<float>(r);
  const float z = s * s;
  return s * (1.0f + z * (-1.66666547e-1f +
              z * (8.33216087e-3f + z * -1.95152959e-4f)));
}

float nv_kernel_cosf(double r) noexcept {
  const float s = static_cast<float>(r);
  const float z = s * s;
  return 1.0f + z * (-0.5f + z * (4.16666456e-2f +
              z * (-1.38873036e-3f + z * 2.44331571e-5f)));
}

float nv_sinf(float x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  if (fp::is_inf_bits(x)) return fp::quiet_nan<float>();
  const double xd = static_cast<double>(x);
  const double ax = fp::abs_bits(xd);
  if (ax < 0x1.921fb54442d18p-1) {
    if (ax < 0x1p-27) return x;
    return nv_kernel_sinf(xd);
  }
  const core::Reduced red = core::rem_pio2(xd, core::ReduceStyle::CodyWaite2);
  switch (red.quadrant) {
    case 0: return nv_kernel_sinf(red.hi);
    case 1: return nv_kernel_cosf(red.hi);
    case 2: return -nv_kernel_sinf(red.hi);
    default: return -nv_kernel_cosf(red.hi);
  }
}

float nv_cosf(float x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  if (fp::is_inf_bits(x)) return fp::quiet_nan<float>();
  const double xd = static_cast<double>(x);
  const double ax = fp::abs_bits(xd);
  if (ax < 0x1.921fb54442d18p-1) {
    if (ax < 0x1p-27) return 1.0f;
    return nv_kernel_cosf(ax);
  }
  const core::Reduced red = core::rem_pio2(xd, core::ReduceStyle::CodyWaite2);
  switch (red.quadrant) {
    case 0: return nv_kernel_cosf(red.hi);
    case 1: return -nv_kernel_sinf(red.hi);
    case 2: return -nv_kernel_cosf(red.hi);
    default: return nv_kernel_sinf(red.hi);
  }
}

float nv_tanf(float x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  if (fp::is_inf_bits(x)) return fp::quiet_nan<float>();
  const double xd = static_cast<double>(x);
  const double ax = fp::abs_bits(xd);
  if (ax < 0x1.921fb54442d18p-1) {
    if (ax < 0x1p-27) return x;
    return nv_kernel_sinf(xd) / nv_kernel_cosf(xd);
  }
  const core::Reduced red = core::rem_pio2(xd, core::ReduceStyle::CodyWaite2);
  const float s = nv_kernel_sinf(red.hi);
  const float c = nv_kernel_cosf(red.hi);
  return (red.quadrant & 1) ? -c / s : s / c;
}

float nv_ceilf(float x) noexcept { return core::ceil_exact(x); }
float nv_floorf(float x) noexcept { return core::floor_exact(x); }

/// FP32 fmod mirrors the FP64 structure with a float-width unrolled range:
/// gaps beyond 128 bits (possible because binary32 subnormals reach 2^-149)
/// take the coarse single-rounding path.
float nv_fmodf(float x, float y) noexcept {
  const float ax = fp::abs_bits(x);
  const float ay = fp::abs_bits(y);
  if (fp::is_nan_bits(x) || fp::is_nan_bits(y) || fp::is_inf_bits(x) ||
      fp::is_zero_bits(y))
    return fp::quiet_nan<float>();  // invalid
  if (fp::is_inf_bits(y) || ax < ay) return x;

  const auto ilogbf_bits = [](float v) {
    const int raw = fp::raw_exponent(v);
    if (raw > 0) return raw - 127;
    const std::uint32_t mant = fp::mantissa_field(v);
    return 31 - std::countl_zero(mant) - 149;
  };
  const int gap = ilogbf_bits(ax) - ilogbf_bits(ay);
  if (gap <= 128)
    return fp::copysign_bits(core::fmod_exact(ax, ay), x);

  const int k = gap - 23;
  const float ays = ay * std::ldexp(1.0f, k);  // exact: exponent stays in range
  float q = core::trunc_exact(ax / ays);
  if (q < 1.0f) q = 1.0f;
  const float p = q * ays;  // rounds: the modeled precision loss
  float r = ax - p;
  if (r < 0.0f) r += ays;
  return fp::copysign_bits(core::fmod_exact(r, ay), x);
}

constexpr Fn64 kNv64 = {
    detail::hw_fabs, detail::hw_sqrt, nv_exp, nv_log,
    nv_sin, nv_cos, nv_tan,
    core::asin64, core::acos64, core::atan64,
    nv_sinh, nv_cosh, nv_tanh,
    nv_ceil, nv_floor, core::trunc_exact<double>,
    nv_fmod, nv_pow, core::fmin_ieee<double>, core::fmax_ieee<double>,
};

constexpr Fn32 kNv32 = {
    detail::hw_fabsf, detail::hw_sqrtf,
    detail::via64<nv_exp>, detail::via64<nv_log>,
    nv_sinf, nv_cosf, nv_tanf,
    detail::via64<core::asin64>, detail::via64<core::acos64>,
    detail::via64<core::atan64>,
    detail::via64<nv_sinh>, detail::via64<nv_cosh>, detail::via64<nv_tanh>,
    nv_ceilf, nv_floorf, core::trunc_exact<float>,
    nv_fmodf, detail::via64_2<nv_pow>,
    core::fmin_ieee<float>, core::fmax_ieee<float>,
};

}  // namespace

const MathLib& nv_libdevice() {
  static const MathLib lib("nv-libdevice-sim", SymbolStyle::NvLibdevice, kNv64, kNv32,
                           /*fp32_call_cycles=*/24);
  return lib;
}

namespace detail {
const Fn64& nv_table64() { return kNv64; }
const Fn32& nv_table32() { return kNv32; }
}  // namespace detail

}  // namespace gpudiff::vmath
