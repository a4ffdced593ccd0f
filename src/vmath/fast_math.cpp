// Fast-math FP32 libraries for both vendors.
//
//  * nv_fast(): nvcc -use_fast_math maps sinf->__sinf, expf->__expf, ... —
//    short float-native polynomial approximations whose range reduction is
//    float-grade: accurate for small |x|, increasingly wrong for large |x|.
//  * amd_ocml_native(): hipcc fast-math maps selected calls to OCML
//    native_* functions modeled on the GCN hardware transcendental units
//    (V_SIN_F32 computes sin(2*pi*fract), V_EXP_F32 computes 2^x), with
//    *different* polynomial degrees and reduction than NVIDIA's intrinsics.
//
// Both vendors keep their default FP64 tables under fast math (on real
// hardware -use_fast_math / -ffast-math only swaps the FP32 entry points);
// the FP64 fast-math effects come from optimizer passes, not the library.
// The large FP32 O3+fast-math discrepancy counts of paper Table IX emerge
// from these two approximations disagreeing on nearly every argument.

#include <cmath>

#include "vmath/mathlib.hpp"
#include "vmath/vendor_common.hpp"
#include "vmath/vendor_tables.hpp"

namespace gpudiff::vmath {

namespace {

/// Round-to-nearest-integer-valued float via the magic-number trick
/// (correct for |x| < 2^22; beyond that the caller's result is documented
/// garbage, matching the real intrinsics' unbounded error for large args).
float rint_magicf(float x) noexcept {
  const float magic = 12582912.0f;  // 1.5 * 2^23
  if (fp::abs_bits(x) >= 8388608.0f) return x;  // already integral (2^23)
  return (x + magic) - magic;
}

/// Scale a float by 2^k with saturation (fast paths skip denormal care).
float scale_pow2f(float x, int k) noexcept {
  if (k > 127) return x * 0x1p127f * 0x1p127f;
  if (k < -126) {
    x *= 0x1p-126f;
    k += 126;
    if (k < -126) return x * 0.0f;
    return x * std::ldexp(1.0f, k);
  }
  return x * std::ldexp(1.0f, k);
}

// ---------------------------------------------------------------------------
// NVIDIA __sinf / __cosf / __tanf / __expf / __logf / __powf models
// ---------------------------------------------------------------------------

float nv_fast_sincos(float x, bool want_cos) noexcept {
  if (!fp::is_finite_bits(x)) return fp::quiet_nan<float>();
  const float q = rint_magicf(x * 0.636619772f);  // x * 2/pi
  int n = 0;
  if (fp::abs_bits(q) < 2147483000.0f) n = static_cast<int>(q) & 3;
  // Two-step float Cody-Waite; for |x| beyond ~2^22 this is garbage by design.
  float r = std::fma(-q, 1.57079637f, x);
  r = std::fma(-q, -4.37113883e-8f, r);
  const float s = r * r;
  const float sinp =
      r * (1.0f + s * (-1.66666667e-1f + s * (8.33333333e-3f + s * -1.98412698e-4f)));
  const float cosp =
      1.0f + s * (-0.5f + s * (4.16666667e-2f +
                               s * (-1.38888889e-3f + s * 2.48015873e-5f)));
  switch (n) {
    case 0: return want_cos ? cosp : sinp;
    case 1: return want_cos ? -sinp : cosp;
    case 2: return want_cos ? -cosp : -sinp;
    default: return want_cos ? sinp : -cosp;
  }
}

float nv_fast_sinf(float x) noexcept { return nv_fast_sincos(x, false); }
float nv_fast_cosf(float x) noexcept { return nv_fast_sincos(x, true); }
float nv_fast_tanf(float x) noexcept {
  return nv_fast_sincos(x, false) / nv_fast_sincos(x, true);
}

float nv_fast_expf(float x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  const float t = x * 1.44269504f;  // log2(e)
  if (t > 128.0f) return fp::infinity<float>();
  if (t < -150.0f) return 0.0f;
  const float k = rint_magicf(t);
  const float f = t - k;
  // 2^f on [-0.5, 0.5], degree-5 polynomial (one degree more than AMD's
  // native_exp model — the two intrinsics disagree at ~1e-7 relative).
  const float p = 1.0f + f * (6.93147182e-1f + f * (2.40226507e-1f +
                  f * (5.55041087e-2f + f * (9.61812911e-3f + f * 1.33335581e-3f))));
  return scale_pow2f(p, static_cast<int>(k));
}

float nv_fast_logf(float x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  if (fp::is_zero_bits(x)) return -fp::infinity<float>();
  if (fp::sign_bit(x)) return fp::quiet_nan<float>();
  if (fp::is_inf_bits(x)) return x;
  auto bits = fp::to_bits(x);
  int e = static_cast<int>(bits >> 23) - 127;
  if (e == -127) {  // subnormal: normalize
    x *= 0x1p25f;
    bits = fp::to_bits(x);
    e = static_cast<int>(bits >> 23) - 127 - 25;
  }
  std::uint32_t mant = bits & fp::FloatTraits<float>::mantissa_mask;
  // Center mantissa on [sqrt(2)/2, sqrt(2)).
  std::uint32_t mbits;
  if (mant >= 0x3504F3u) {  // mantissa field of sqrt(2)f
    e += 1;
    mbits = (static_cast<std::uint32_t>(126) << 23) | mant;
  } else {
    mbits = (static_cast<std::uint32_t>(127) << 23) | mant;
  }
  const float m = fp::from_bits<float>(mbits);
  const float f = m - 1.0f;
  const float s = f / (2.0f + f);
  const float z = s * s;
  const float R = z * (0.666666667f + z * (0.399999991f + z * 0.287672993f));
  const float hfsq = 0.5f * f * f;
  return static_cast<float>(e) * 0.693147181f + (f - (hfsq - s * (hfsq + R)));
}

float nv_fast_powf(float x, float y) noexcept {
  // CUDA defines __powf(x, y) = __expf(y * __logf(x)).
  return nv_fast_expf(y * nv_fast_logf(x));
}

// ---------------------------------------------------------------------------
// AMD native_* models (GCN transcendental-unit semantics)
// ---------------------------------------------------------------------------

/// sin(2*pi*t) after V_FRACT-style reduction of t = x/(2*pi).
float amd_native_sincos(float x, bool want_cos) noexcept {
  if (!fp::is_finite_bits(x)) return fp::quiet_nan<float>();
  float t = x * 0.159154943f;  // 1/(2*pi), float-rounded: huge args lose all bits
  if (want_cos) t += 0.25f;    // cos(2*pi*t) == sin(2*pi*(t + 1/4))
  t -= core::floor_exact(t);   // V_FRACT: t in [0, 1)
  // Quadrant fold: reduce to sin of an angle in [0, pi/2] with a sign.
  float frac;
  float sign = 1.0f;
  if (t <= 0.25f) {
    frac = t;
  } else if (t <= 0.5f) {
    frac = 0.5f - t;
  } else if (t <= 0.75f) {
    frac = t - 0.5f;
    sign = -1.0f;
  } else {
    frac = 1.0f - t;
    sign = -1.0f;
  }
  const float r = frac * 6.28318531f;  // radians, in [0, pi/2]
  const float s = r * r;
  // Degree-7 odd polynomial (different coefficient set from __sinf).
  const float sinp = r * (1.0f + s * (-1.66665668e-1f +
                      s * (8.33025139e-3f + s * -1.95906220e-4f)));
  return sign * sinp;
}

float amd_native_sinf(float x) noexcept { return amd_native_sincos(x, false); }
float amd_native_cosf(float x) noexcept { return amd_native_sincos(x, true); }
float amd_native_tanf(float x) noexcept {
  return amd_native_sincos(x, false) / amd_native_sincos(x, true);
}

float amd_native_expf(float x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  const float t = x * 1.44269504f;
  if (t > 128.0f) return fp::infinity<float>();
  if (t < -150.0f) return 0.0f;
  const float k = rint_magicf(t);
  const float f = t - k;  // f in [-0.5, 0.5]
  // 2^f via the exponential Taylor core in u = f*ln2 (degree 6); a different
  // evaluation shape than NVIDIA's direct 2^f minimax polynomial, so the two
  // approximations disagree in the low bits on most live arguments.
  const float u = f * 6.93147182e-1f;
  const float p = 1.0f + u * (1.0f + u * (0.5f + u * (1.66666672e-1f +
                  u * (4.16666679e-2f + u * (8.33333377e-3f + u * 1.38888892e-3f)))));
  return scale_pow2f(p, static_cast<int>(k));
}

float amd_native_logf(float x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  if (fp::is_zero_bits(x)) return -fp::infinity<float>();
  if (fp::sign_bit(x)) return fp::quiet_nan<float>();
  if (fp::is_inf_bits(x)) return x;
  // V_LOG_F32 computes log2; multiply by ln2 afterwards.
  auto bits = fp::to_bits(x);
  int e = static_cast<int>(bits >> 23) - 127;
  if (e == -127) {
    x *= 0x1p25f;
    bits = fp::to_bits(x);
    e = static_cast<int>(bits >> 23) - 127 - 25;
  }
  const std::uint32_t mant = bits & fp::FloatTraits<float>::mantissa_mask;
  const float m = fp::from_bits<float>((static_cast<std::uint32_t>(127) << 23) | mant);
  // log2(m) for m in [1,2): atanh series in u = (m-1)/(m+1), |u| <= 1/3.
  const float u = (m - 1.0f) / (m + 1.0f);
  const float u2 = u * u;
  const float log2m = u * (2.88539004f + u2 * (0.961796700f +
                      u2 * (0.577078016f + u2 * 0.412198186f)));
  return (static_cast<float>(e) + log2m) * 0.693147181f;
}

}  // namespace

const MathLib& nv_fast() {
  static const MathLib lib = [] {
    const Fn64& f64 = detail::nv_table64();
    Fn32 f32 = detail::nv_table32();
    f32.sin_ = nv_fast_sinf;
    f32.cos_ = nv_fast_cosf;
    f32.tan_ = nv_fast_tanf;
    f32.exp_ = nv_fast_expf;
    f32.log_ = nv_fast_logf;
    f32.pow_ = nv_fast_powf;
    return MathLib("nv-fastmath-sim", SymbolStyle::NvFast, f64, f32,
                   /*fp32_call_cycles=*/6);
  }();
  return lib;
}

namespace detail {
const Fn32& amd_native_table32() {
  static const Fn32 table = [] {
    Fn32 f32 = amd_table32();
    f32.sin_ = amd_native_sinf;
    f32.cos_ = amd_native_cosf;
    f32.tan_ = amd_native_tanf;
    f32.exp_ = amd_native_expf;
    f32.log_ = amd_native_logf;
    return f32;
  }();
  return table;
}
}  // namespace detail

const MathLib& amd_ocml_native() {
  static const MathLib lib(
      "amd-ocml-native-sim", SymbolStyle::AmdOcmlNative,
      detail::amd_table64(), detail::amd_native_table32(),
      /*fp32_call_cycles=*/6);
  return lib;
}

}  // namespace gpudiff::vmath
