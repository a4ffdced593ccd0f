// AMD-sim device math library ("ocml-sim").
//
// Models the ROCm device-libs (OCML) algorithm family: dedicated library
// routines (__ocml_fmod_f64 et al., the paper's Case Study 1) with exact
// integer algorithms where the standard allows them.  Divergent algorithms
// relative to nv_math.cpp:
//
//  * fmod   — exact shift-subtract integer algorithm (never rounds).
//  * ceil/floor — exact over the full exponent range.
//  * sin/cos/tan — three-constant Cody-Waite with cancellation detection,
//             accurate even next to multiples of pi/2.
//  * cosh/sinh — scaled composition near the overflow boundary: finite
//             results all the way to the true threshold (~710.47).

#include "vmath/mathlib.hpp"
#include "vmath/vendor_common.hpp"
#include "vmath/vendor_tables.hpp"

namespace gpudiff::vmath {

namespace {

using core::PolyScheme;
using core::ReduceStyle;

double amd_sin(double x) noexcept { return core::sin64(x, ReduceStyle::CodyWaite3); }
double amd_cos(double x) noexcept { return core::cos64(x, ReduceStyle::CodyWaite3); }
double amd_tan(double x) noexcept { return core::tan64(x, ReduceStyle::CodyWaite3); }

// AMD-like Estrin evaluation of the shared exp/log cores (same coefficients
// as NV-sim, different association: last-ULP divergences on a small
// fraction of arguments).
double amd_exp(double x) noexcept { return core::exp64(x, PolyScheme::Estrin); }
double amd_log(double x) noexcept { return core::log64(x, PolyScheme::Estrin); }
double amd_tanh(double x) noexcept { return core::tanh64(x, PolyScheme::Estrin); }
double amd_pow(double x, double y) noexcept {
  return core::pow64(x, y, PolyScheme::Estrin);
}

double amd_cosh(double x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  const double ax = fp::abs_bits(x);
  if (ax < 0x1p-27) return 1.0;
  if (ax < 709.0) {
    // Same composition as NV-sim in the common range (exp differs only by
    // polynomial association).
    const double t = amd_exp(ax);
    return 0.5 * t + 0.5 / t;
  }
  // Near the overflow boundary: cosh(x) ~ e^(x - ln2); reduce the argument
  // before exponentiating so the result stays finite up to ~710.47.
  constexpr double kLn2 = 6.93147180559945286227e-01;
  return amd_exp(ax - kLn2);
}

double amd_sinh(double x) noexcept {
  if (fp::is_nan_bits(x) || fp::is_inf_bits(x)) return x;
  const double ax = fp::abs_bits(x);
  if (ax < 0x1p-27) return x;
  double r;
  if (ax < 709.0) {
    const double t = amd_exp(ax);
    r = 0.5 * t - 0.5 / t;
  } else {
    constexpr double kLn2 = 6.93147180559945286227e-01;
    r = amd_exp(ax - kLn2);
  }
  return fp::copysign_bits(r, x);
}

constexpr Fn64 kAmd64 = {
    detail::hw_fabs, detail::hw_sqrt, amd_exp, amd_log,
    amd_sin, amd_cos, amd_tan,
    core::asin64, core::acos64, core::atan64,
    amd_sinh, amd_cosh, amd_tanh,
    core::ceil_exact<double>, core::floor_exact<double>, core::trunc_exact<double>,
    core::fmod_exact<double>, amd_pow,
    core::fmin_ieee<double>, core::fmax_ieee<double>,
};

constexpr Fn32 kAmd32 = {
    detail::hw_fabsf, detail::hw_sqrtf,
    detail::via64<amd_exp>, detail::via64<amd_log>,
    detail::via64<amd_sin>, detail::via64<amd_cos>, detail::via64<amd_tan>,
    detail::via64<core::asin64>, detail::via64<core::acos64>,
    detail::via64<core::atan64>,
    detail::via64<amd_sinh>, detail::via64<amd_cosh>, detail::via64<amd_tanh>,
    core::ceil_exact<float>, core::floor_exact<float>, core::trunc_exact<float>,
    core::fmod_exact<float>, detail::via64_2<amd_pow>,
    core::fmin_ieee<float>, core::fmax_ieee<float>,
};

}  // namespace

const MathLib& amd_ocml() {
  static const MathLib lib("amd-ocml-sim", SymbolStyle::AmdOcml, kAmd64, kAmd32,
                           /*fp32_call_cycles=*/24);
  return lib;
}

namespace detail {
const Fn64& amd_table64() { return kAmd64; }
const Fn32& amd_table32() { return kAmd32; }
}  // namespace detail

}  // namespace gpudiff::vmath
