#include "vmath/core/kernels.hpp"

#include "vmath/core/dd.hpp"

namespace gpudiff::vmath::core {

namespace {

// ln(2) split (fdlibm): exact high part + tail.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kInvLn2 = 1.44269504088896338700e+00;

constexpr double kHuge = 1.0e300;
constexpr double kTiny = 1.0e-300;

}  // namespace

double scale_by_pow2(double x, int k) noexcept {
  // Multiply by 2^k in at most two exact-or-singly-rounded steps so that a
  // subnormal result is rounded exactly once.
  if (k > 1023) {
    x *= 0x1p1023;
    k -= 1023;
    if (k > 1023) {
      x *= 0x1p1023;
      k -= 1023;
      if (k > 1023) return x * 0x1p1023;  // certainly inf by now
    }
    return x * std::ldexp(1.0, k);
  }
  if (k < -1022) {
    x *= 0x1p-969;  // keep headroom: one exact step, then the rounding step
    k += 969;
    if (k < -1022) {
      x *= 0x1p-969;
      k += 969;
      if (k < -1022) return x * 0x1p-1022;  // certainly zero by now
    }
    return x * std::ldexp(1.0, k);
  }
  return x * std::ldexp(1.0, k);
}

// ---------------------------------------------------------------------------
// exp (fdlibm e_exp structure)
// ---------------------------------------------------------------------------

double exp64(double x, PolyScheme scheme) noexcept {
  if (fp::is_nan_bits(x)) return x;
  if (fp::is_inf_bits(x)) return fp::sign_bit(x) ? 0.0 : x;
  constexpr double kOverflow = 7.09782712893383973096e+02;
  constexpr double kUnderflow = -7.45133219101941108420e+02;
  if (x > kOverflow) return kHuge * kHuge;  // +inf
  if (x < kUnderflow) return kTiny * kTiny;  // +0 (underflow)

  // Argument reduction x = k*ln2 + r.
  double hi = 0.0, lo = 0.0, r = x;
  int k = 0;
  const double ax = fp::abs_bits(x);
  if (ax > 0.5 * 6.93147180559945286227e-01) {
    if (ax < 1.5 * 6.93147180559945286227e-01) {
      k = fp::sign_bit(x) ? -1 : 1;
      hi = x - k * kLn2Hi;
      lo = k * kLn2Lo;
    } else {
      const double fk = static_cast<double>(static_cast<int>(
          kInvLn2 * x + (fp::sign_bit(x) ? -0.5 : 0.5)));
      k = static_cast<int>(fk);
      hi = x - fk * kLn2Hi;
      lo = fk * kLn2Lo;
    }
    r = hi - lo;
  } else if (ax < 0x1p-28) {
    return 1.0 + x;  // inexact
  }

  // Polynomial core on |r| <= 0.5*ln2.  Same coefficients either way; the
  // association differs (Horner vs Estrin), so the two schemes disagree in
  // the last ULP for a small fraction of arguments.
  constexpr double P1 = 1.66666666666666019037e-01;
  constexpr double P2 = -2.77777777770155933842e-03;
  constexpr double P3 = 6.61375632143793436117e-05;
  constexpr double P4 = -1.65339022054652515390e-06;
  constexpr double P5 = 4.13813679705723846039e-08;
  const double t = r * r;
  double c;
  if (scheme == PolyScheme::Horner) {
    c = r - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))));
  } else {
    // Identical polynomial, Estrin-style association:
    //   t*P1 + t^2*P2 + t^3*(P3 + t*P4 + t^2*P5)
    const double t2 = t * t;
    const double t3 = t * t2;
    c = r - (t * (P1 + t * P2) + t3 * (P3 + t * P4 + t2 * P5));
  }
  double y;
  if (k == 0) return 1.0 - ((r * c) / (c - 2.0) - r);
  y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  return scale_by_pow2(y, k);
}

// ---------------------------------------------------------------------------
// log (fdlibm e_log structure)
// ---------------------------------------------------------------------------

double log64(double x, PolyScheme scheme) noexcept {
  if (fp::is_nan_bits(x)) return x;
  if (fp::is_zero_bits(x)) return -kHuge * kHuge;  // -inf, div-by-zero
  if (fp::sign_bit(x)) return fp::quiet_nan<double>();  // invalid
  if (fp::is_inf_bits(x)) return x;

  int k = 0;
  if (fp::is_subnormal_bits(x)) {
    x *= 0x1p54;
    k -= 54;
  }
  const auto bits = fp::to_bits(x);
  const int e = static_cast<int>(bits >> 52) - 1023;
  const std::uint64_t mant = bits & fp::FloatTraits<double>::mantissa_mask;
  // Normalize the significand 1.m into [sqrt(2)/2, sqrt(2)): when
  // 1.m >= sqrt(2) (mantissa field of sqrt(2) is 0x6A09E667F3BCD), halve it
  // and carry the factor of two into k.
  std::uint64_t mbits;
  if (mant >= 0x6A09E667F3BCDULL) {
    k += e + 1;
    mbits = (static_cast<std::uint64_t>(1022) << 52) | mant;  // 1.m / 2
  } else {
    k += e;
    mbits = (static_cast<std::uint64_t>(1023) << 52) | mant;  // 1.m
  }
  const double m = fp::from_bits<double>(mbits);  // in [sqrt2/2, sqrt2)
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  constexpr double Lg1 = 6.666666666666735130e-01;
  constexpr double Lg2 = 3.999999999940941908e-01;
  constexpr double Lg3 = 2.857142874366239149e-01;
  constexpr double Lg4 = 2.222219843214978396e-01;
  constexpr double Lg5 = 1.818357216161805012e-01;
  constexpr double Lg6 = 1.531383769920937332e-01;
  constexpr double Lg7 = 1.479819860511658591e-01;
  double R;
  if (scheme == PolyScheme::Horner) {
    R = z * (Lg1 + z * (Lg2 + z * (Lg3 + z * (Lg4 + z * (Lg5 + z * (Lg6 + z * Lg7))))));
  } else {
    const double t1 = w * (Lg2 + w * (Lg4 + w * Lg6));
    const double t2 = z * (Lg1 + w * (Lg3 + w * (Lg5 + w * Lg7)));
    R = t1 + t2;
  }
  const double hfsq = 0.5 * f * f;
  const double dk = static_cast<double>(k);
  if (k == 0) return f - (hfsq - s * (hfsq + R));
  return dk * kLn2Hi - ((hfsq - (s * (hfsq + R) + dk * kLn2Lo)) - f);
}

// ---------------------------------------------------------------------------
// tanh via exp
// ---------------------------------------------------------------------------

namespace {

/// expm1 on |u| <= 0.7 by Taylor series (degree 16: error < 2^-57 at the
/// interval edge) — avoids the catastrophic cancellation of exp(u) - 1.
double expm1_small(double u) noexcept {
  static constexpr double kInvFact[16] = {
      1.0,                      // 1/1!
      1.0 / 2,                  // 1/2!
      1.0 / 6,                  1.0 / 24,
      1.0 / 120,                1.0 / 720,
      1.0 / 5040,               1.0 / 40320,
      1.0 / 362880,             1.0 / 3628800,
      1.0 / 39916800,           1.0 / 479001600,
      1.0 / 6227020800.0,       1.0 / 87178291200.0,
      1.0 / 1307674368000.0,    1.0 / 20922789888000.0,
  };
  double acc = kInvFact[15];
  for (int k = 14; k >= 0; --k) acc = acc * u + kInvFact[k];
  return u * acc;
}

}  // namespace

double tanh64(double x, PolyScheme scheme) noexcept {
  if (fp::is_nan_bits(x)) return x;
  const double ax = fp::abs_bits(x);
  if (ax > 22.0) {
    // |tanh| == 1 to double precision.
    const double one = fp::is_inf_bits(x) ? 1.0 : 1.0 - kTiny;  // inexact
    return fp::copysign_bits(one, x);
  }
  if (ax < 0x1p-28) return x;
  double r;
  if (ax <= 0.35) {
    // tanh(x) = expm1(2x) / (2 + expm1(2x)): cancellation-free small path.
    const double e = expm1_small(2.0 * ax);
    r = e / (2.0 + e);
  } else {
    // tanh(x) = (e^{2|x|} - 1) / (e^{2|x|} + 1), sign restored at the end.
    const double t = exp64(2.0 * ax, scheme);
    r = (t - 1.0) / (t + 1.0);
  }
  return fp::copysign_bits(r, x);
}

// ---------------------------------------------------------------------------
// atan (4-interval reduction, odd polynomial core)
// ---------------------------------------------------------------------------

namespace {

// atan(0.5), atan(1), atan(1.5), atan(inf) as hi+lo pairs, derived from
// pi/2: computed lazily from the same high-precision source as reduce.cpp
// for atan(inf)=pi/2 and atan(1)=pi/4; the half/1.5 anchors use dd division
// identities evaluated once with Newton-refined long double free math.
struct AtanAnchors {
  double hi[4];
  double lo[4];
};

// Compute atan anchors via the arctan addition law from pi/4:
//   atan(1)   = pi/4 exactly (dd),
//   atan(0.5) = pi/4 - atan(1/3)   [atan(a)-atan(b) = atan((a-b)/(1+ab))]
//   atan(1.5) = pi/4 + atan(0.2)
// The small arguments 1/3 and 0.2 are evaluated with the polynomial core
// itself (they are deep inside its convergence region), keeping the anchors
// self-consistent with the evaluation scheme to ~2^-70.
double atan_small_poly(double z_hi, double z_lo);

const AtanAnchors& atan_anchors() {
  static const AtanAnchors a = [] {
    AtanAnchors an{};
    double p_hi, p_lo;
    pio2_dd(&p_hi, &p_lo);
    // atan(inf) = pi/2
    an.hi[3] = p_hi;
    an.lo[3] = p_lo;
    // atan(1) = pi/4
    const DD pio4 = {p_hi * 0.5, p_lo * 0.5};  // exact scaling
    an.hi[1] = pio4.hi;
    an.lo[1] = pio4.lo;
    // atan(1/3) and atan(1/5): dd argument, polynomial evaluation.
    const DD third = dd_div(1.0, 3.0);
    const double at_third = atan_small_poly(third.hi, third.lo);
    DD a05 = dd_add(pio4, -at_third);
    an.hi[0] = a05.hi;
    an.lo[0] = a05.lo;
    const DD fifth = dd_div(1.0, 5.0);
    const double at_fifth = atan_small_poly(fifth.hi, fifth.lo);
    DD a15 = dd_add(pio4, at_fifth);
    an.hi[2] = a15.hi;
    an.lo[2] = a15.lo;
    return an;
  }();
  return a;
}

// Odd minimax-style polynomial for atan on |z| <= ~0.46 (z = reduced arg).
// Coefficients are the classic fdlibm aT[] set.
constexpr double kAtanCoef[11] = {
    3.33333333333329318027e-01,  -1.99999999998764832476e-01,
    1.42857142725034663711e-01,  -1.11111104054623557880e-01,
    9.09088713343650656196e-02,  -7.69187620504482999495e-02,
    6.66107313738753120669e-02,  -5.83357013379057348645e-02,
    4.97687799461593236017e-02,  -3.65315727442169155270e-02,
    1.62858201153657823623e-02,
};

double atan_core(double z) {
  // atan(z) = z - z^3*(aT0 + z^2*aT1 + ...) with odd/even interleave.
  const double w = z * z;
  const double v = w * w;
  const double s1 = w * (kAtanCoef[0] + v * (kAtanCoef[2] + v * (kAtanCoef[4] +
                    v * (kAtanCoef[6] + v * (kAtanCoef[8] + v * kAtanCoef[10])))));
  const double s2 = v * (kAtanCoef[1] + v * (kAtanCoef[3] + v * (kAtanCoef[5] +
                    v * (kAtanCoef[7] + v * kAtanCoef[9]))));
  return z - z * (s1 + s2);
}

double atan_small_poly(double z_hi, double z_lo) {
  // atan(z_hi + z_lo) ~= atan(z_hi) + z_lo/(1+z_hi^2)
  return atan_core(z_hi) + z_lo / (1.0 + z_hi * z_hi);
}

}  // namespace

double atan64(double x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  const AtanAnchors& an = atan_anchors();
  const double ax = fp::abs_bits(x);
  if (fp::is_inf_bits(x)) return fp::copysign_bits(an.hi[3] + an.lo[3], x);
  if (ax < 0x1p-27) return x;  // atan(x) ~ x
  double result;
  if (ax < 0.4375) {  // 7/16: no reduction
    result = atan_core(ax);
  } else {
    int id;
    double z;
    if (ax < 0.6875) {            // [7/16, 11/16): anchor 0.5
      id = 0;
      z = (2.0 * ax - 1.0) / (2.0 + ax);
    } else if (ax < 1.1875) {     // [11/16, 19/16): anchor 1.0
      id = 1;
      z = (ax - 1.0) / (ax + 1.0);
    } else if (ax < 2.4375) {     // [19/16, 39/16): anchor 1.5
      id = 2;
      z = (ax - 1.5) / (1.0 + 1.5 * ax);
    } else {                      // [39/16, inf): anchor pi/2
      id = 3;
      z = -1.0 / ax;
    }
    const double p = atan_core(z);
    result = an.hi[id] + (p + an.lo[id]);
  }
  return fp::copysign_bits(result, x);
}

// ---------------------------------------------------------------------------
// asin / acos via atan identities (shared; moderate accuracy is fine because
// both vendor libraries bind the same implementation).
// ---------------------------------------------------------------------------

double asin64(double x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  const double ax = fp::abs_bits(x);
  if (ax > 1.0) return fp::quiet_nan<double>();  // invalid
  if (ax == 1.0) {
    double p_hi, p_lo;
    pio2_dd(&p_hi, &p_lo);
    return fp::copysign_bits(p_hi, x);
  }
  if (ax < 0x1p-27) return x;
  if (ax <= 0.5) {
    return atan64(x / std::sqrt(std::fma(-x, x, 1.0)));
  }
  // asin(x) = pi/2 - 2*asin(sqrt((1-|x|)/2)), reduces to the small branch.
  const double t = std::sqrt((1.0 - ax) * 0.5);
  const double inner = atan64(t / std::sqrt(std::fma(-t, t, 1.0)));
  double p_hi, p_lo;
  pio2_dd(&p_hi, &p_lo);
  const double r = p_hi - (2.0 * inner - p_lo);
  return fp::copysign_bits(r, x);
}

double acos64(double x) noexcept {
  if (fp::is_nan_bits(x)) return x;
  const double ax = fp::abs_bits(x);
  if (ax > 1.0) return fp::quiet_nan<double>();  // invalid
  double p_hi, p_lo;
  pio2_dd(&p_hi, &p_lo);
  if (x == 1.0) return 0.0;
  if (x == -1.0) return 2.0 * p_hi;
  if (ax <= 0.5) {
    const double a = asin64(x);
    return p_hi - (a - p_lo);
  }
  // acos(x) = 2*asin(sqrt((1-x)/2)) for x > 0.5;
  // acos(x) = pi - 2*asin(sqrt((1+x)/2)) for x < -0.5.
  if (x > 0.5) {
    const double t = std::sqrt((1.0 - x) * 0.5);
    return 2.0 * asin64(t);
  }
  const double t = std::sqrt((1.0 + x) * 0.5);
  return 2.0 * (p_hi - (asin64(t) - p_lo));
}

// ---------------------------------------------------------------------------
// pow via exp2/log2-style composition on top of log64/exp64 with a dd
// correction step.  Both vendors share it (IEEE special cases included).
// ---------------------------------------------------------------------------

namespace {

bool is_odd_integer(double y) {
  if (fp::abs_bits(y) >= 0x1p53) return false;  // large doubles are even ints
  const double t = trunc_exact(y);
  if (t != y) return false;
  const double half = t * 0.5;
  return trunc_exact(half) != half;
}

bool is_integer_value(double y) {
  return fp::abs_bits(y) >= 0x1p52 || trunc_exact(y) == y;
}

}  // namespace

double pow64(double x, double y, PolyScheme scheme) noexcept {
  // IEEE 754 / C99 special-case ladder.
  if (y == 0.0) return 1.0;
  if (x == 1.0) return 1.0;
  if (fp::is_nan_bits(x) || fp::is_nan_bits(y)) {
    return fp::quiet_nan<double>();
  }
  const double ax = fp::abs_bits(x);
  if (fp::is_inf_bits(y)) {
    if (ax == 1.0) return 1.0;
    const bool to_zero = (ax < 1.0) != fp::sign_bit(y);
    return to_zero ? 0.0 : fp::infinity<double>();
  }
  if (fp::is_zero_bits(x)) {
    const bool odd = is_odd_integer(y);
    if (fp::sign_bit(y)) {
      const double inf = fp::infinity<double>();
      return odd ? fp::copysign_bits(inf, x) : inf;  // div-by-zero
    }
    return odd ? fp::copysign_bits(0.0, x) : 0.0;
  }
  if (fp::is_inf_bits(x)) {
    const bool odd = is_odd_integer(y);
    if (!fp::sign_bit(x)) return fp::sign_bit(y) ? 0.0 : fp::infinity<double>();
    if (fp::sign_bit(y)) return odd ? -0.0 : 0.0;
    return odd ? -fp::infinity<double>() : fp::infinity<double>();
  }
  double sign = 1.0;
  if (fp::sign_bit(x)) {
    if (!is_integer_value(y)) return fp::quiet_nan<double>();  // invalid
    if (is_odd_integer(y)) sign = -1.0;
  }
  // Small-integer exponents: exact binary exponentiation (both real vendor
  // libraries special-case these; pow(-2, 3) must be exactly -8).
  if (is_integer_value(y) && fp::abs_bits(y) <= 64.0) {
    const double base = fp::abs_bits(x);
    long long n = static_cast<long long>(y);
    const bool invert = n < 0;
    if (invert) n = -n;
    double acc = 1.0;
    double sq = base;
    while (n > 0) {
      if (n & 1) acc *= sq;
      n >>= 1;
      if (n) sq *= sq;
    }
    return sign * (invert ? 1.0 / acc : acc);
  }
  // |x|^y = exp(y * log|x|), with the product carried in dd to recover the
  // bits that a bare double product would lose for large y.
  const double lg = log64(ax, scheme);
  const DD prod = two_prod(lg, y);
  constexpr double kOverflow = 7.09782712893383973096e+02;
  if (prod.hi > kOverflow + 1.0) return sign * kHuge * kHuge;
  if (prod.hi < -745.2) return sign * kTiny * kTiny;
  const double e = exp64(prod.hi, scheme);
  // First-order correction: exp(hi+lo) = exp(hi)*(1+lo).
  return sign * (e + e * prod.lo);
}

// ---------------------------------------------------------------------------
// Trig kernels (fdlibm __kernel_sin / __kernel_cos) — shared by vendors.
// ---------------------------------------------------------------------------

double kernel_sin(double r, double r_lo, bool fused) noexcept {
  constexpr double S1 = -1.66666666666666324348e-01;
  constexpr double S2 = 8.33333333332248946124e-03;
  constexpr double S3 = -1.98412698298579493134e-04;
  constexpr double S4 = 2.75573137070700676789e-06;
  constexpr double S5 = -2.50507602534068634195e-08;
  constexpr double S6 = 1.58969099521155010221e-10;
  const double z = r * r;
  const double v = z * r;
  const double p = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));
  if (fused) {
    // v*S1 and r have comparable magnitudes; fusing their combination
    // removes one rounding and shifts the result by one ULP on a fraction
    // of arguments relative to the separate-operation sequence below.
    return std::fma(v, S1, r) - (z * (0.5 * r_lo - v * p) - r_lo);
  }
  return r - ((z * (0.5 * r_lo - v * p) - r_lo) - v * S1);
}

double kernel_cos(double r, double r_lo, bool fused) noexcept {
  constexpr double C1 = 4.16666666666666019037e-02;
  constexpr double C2 = -1.38888888888741095749e-03;
  constexpr double C3 = 2.48015872894767294178e-05;
  constexpr double C4 = -2.75573143513906633035e-07;
  constexpr double C5 = 2.08757232129817482790e-09;
  constexpr double C6 = -1.13596475577881948265e-11;
  const double z = r * r;
  const double p = z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))));
  const double hz = 0.5 * z;
  const double w = 1.0 - hz;
  if (fused) {
    // Fused correction accumulation (see kernel_sin).
    return w + (((1.0 - w) - hz) + std::fma(z, p, -r * r_lo));
  }
  return w + (((1.0 - w) - hz) + (z * p - r * r_lo));
}

double sin64(double x, ReduceStyle style) noexcept {
  if (fp::is_nan_bits(x)) return x;
  if (fp::is_inf_bits(x)) return fp::quiet_nan<double>();  // invalid
  const bool fused = style == ReduceStyle::CodyWaite3;  // AMD-like path
  const double ax = fp::abs_bits(x);
  if (ax < 0x1.921fb54442d18p-1) {  // < pi/4: no reduction
    if (ax < 0x1p-27) return x;
    return kernel_sin(x, 0.0, fused);
  }
  const Reduced red = rem_pio2(x, style);
  switch (red.quadrant) {
    case 0: return kernel_sin(red.hi, red.lo, fused);
    case 1: return kernel_cos(red.hi, red.lo, fused);
    case 2: return -kernel_sin(red.hi, red.lo, fused);
    default: return -kernel_cos(red.hi, red.lo, fused);
  }
}

double cos64(double x, ReduceStyle style) noexcept {
  if (fp::is_nan_bits(x)) return x;
  if (fp::is_inf_bits(x)) return fp::quiet_nan<double>();  // invalid
  const bool fused = style == ReduceStyle::CodyWaite3;  // AMD-like path
  const double ax = fp::abs_bits(x);
  if (ax < 0x1.921fb54442d18p-1) {
    if (ax < 0x1p-27) return 1.0;
    return kernel_cos(ax, 0.0, fused);
  }
  const Reduced red = rem_pio2(x, style);
  switch (red.quadrant) {
    case 0: return kernel_cos(red.hi, red.lo, fused);
    case 1: return -kernel_sin(red.hi, red.lo, fused);
    case 2: return -kernel_cos(red.hi, red.lo, fused);
    default: return kernel_sin(red.hi, red.lo, fused);
  }
}

double tan64(double x, ReduceStyle style) noexcept {
  // tan = sin/cos built from the shared kernels (2-3 ulp; identical on both
  // vendors except for the reduction-style band).
  if (fp::is_nan_bits(x)) return x;
  if (fp::is_inf_bits(x)) return fp::quiet_nan<double>();  // invalid
  const double ax = fp::abs_bits(x);
  const bool fused_small = style == ReduceStyle::CodyWaite3;
  if (ax < 0x1.921fb54442d18p-1) {
    if (ax < 0x1p-27) return x;
    return kernel_sin(x, 0.0, fused_small) / kernel_cos(x, 0.0, fused_small);
  }
  const Reduced red = rem_pio2(x, style);
  const bool fused = style == ReduceStyle::CodyWaite3;
  const double s = kernel_sin(red.hi, red.lo, fused);
  const double c = kernel_cos(red.hi, red.lo, fused);
  return (red.quadrant & 1) ? -c / s : s / c;
}

// ---------------------------------------------------------------------------
// Exact fmod: shift-subtract on the integer representation (musl-style).
// ---------------------------------------------------------------------------

template <typename T>
T fmod_exact(T x, T y) noexcept {
  using Tr = fp::FloatTraits<T>;
  using B = typename Tr::Bits;
  B ux = fp::to_bits(x);
  const B uy_abs = fp::to_bits(y) & ~Tr::sign_mask;
  const B sign = ux & Tr::sign_mask;
  B ux_abs = ux & ~Tr::sign_mask;

  // Specials: y == 0, x inf, or NaN operands -> NaN (invalid).
  if (uy_abs == 0 || ux_abs >= Tr::exponent_mask || uy_abs > Tr::exponent_mask)
    return fp::quiet_nan<T>();
  if (ux_abs < uy_abs) return x;  // |x| < |y|: result is x itself
  if (ux_abs == uy_abs) return fp::copysign_bits(T(0), x);

  // Decompose into exponent + mantissa with explicit leading bit.
  const auto decompose = [](B v, int& e) -> B {
    e = static_cast<int>(v >> Tr::mantissa_bits);
    B m = v & Tr::mantissa_mask;
    if (e == 0) {
      // Subnormal: normalize.
      const int shift = Tr::mantissa_bits + 1 -
                        (std::numeric_limits<B>::digits - std::countl_zero(m));
      m <<= shift;
      e = 1 - shift;
    } else {
      m |= (B{1} << Tr::mantissa_bits);
    }
    return m;
  };

  int ex, ey;
  B mx = decompose(ux_abs, ex);
  const B my = decompose(uy_abs, ey);

  // Long division.  The textbook loop shifts-and-subtracts one bit of the
  // exponent gap per iteration, which for extreme operand pairs (the input
  // classes the campaign draws from — e.g. fmod(1e-4, 1e-308) with a
  // ~1000-bit gap) costs a thousand iterations per call.  The remainder
  // after the whole loop is exactly (mx << (ex - ey)) mod my with mx first
  // reduced below my, so compute that with wide modular shifts instead:
  // each step folds up to 63 (FP64) / 39 (FP32) gap bits into one hardware
  // division.  Bit-identical to the one-bit loop (vmath_test proves it
  // against the reference implementation across extreme operand classes).
  int gap = ex - ey;
  ex = ey;
  if (mx >= my) mx -= my;  // mx < 2*my on entry, one subtract reduces it
  if constexpr (sizeof(B) == 8) {
    while (gap > 0 && mx != 0) {
      const int s = gap > 63 ? 63 : gap;
      // mx < my < 2^53: the two-word dividend keeps every shifted-out bit
      // and (mx << s) < my * 2^63 bounds the quotient under 2^64, so the
      // hardware divide cannot fault and the remainder is exact.
#if defined(__x86_64__)
      std::uint64_t q, hi = mx >> (64 - s), lo = mx << s;
      asm("divq %4" : "=a"(q), "=d"(mx) : "0"(lo), "1"(hi), "r"(my) : "cc");
#else
      mx = static_cast<B>((static_cast<unsigned __int128>(mx) << s) % my);
#endif
      gap -= s;
    }
  } else {
    while (gap > 0 && mx != 0) {
      const int s = gap > 39 ? 39 : gap;
      mx = static_cast<B>((static_cast<std::uint64_t>(mx) << s) % my);
      gap -= s;
    }
  }
  if (mx == 0) return fp::copysign_bits(T(0), x);

  // Renormalize.
  const int lead = std::numeric_limits<B>::digits - 1 - std::countl_zero(mx);
  int shift = Tr::mantissa_bits - lead;
  mx <<= shift;
  ex -= shift;
  B out;
  if (ex > 0) {
    out = (mx - (B{1} << Tr::mantissa_bits)) | (static_cast<B>(ex) << Tr::mantissa_bits);
  } else {
    out = mx >> (1 - ex);  // subnormal result (exact: fmod never rounds)
  }
  return fp::from_bits<T>(out | sign);
}

// ---------------------------------------------------------------------------
// Exact ceil/floor/trunc by mantissa masking.
// ---------------------------------------------------------------------------

namespace {

template <typename T>
T round_to_integral(T x, bool toward_pos_inf, bool toward_neg_inf) noexcept {
  using Tr = fp::FloatTraits<T>;
  using B = typename Tr::Bits;
  if (!fp::is_finite_bits(x) || fp::is_zero_bits(x)) return x;
  const int e = fp::raw_exponent(x) - Tr::exponent_bias;  // unbiased (subnormal: big negative)
  if (e >= Tr::mantissa_bits) return x;  // already integral
  const bool neg = fp::sign_bit(x);
  if (e < 0) {
    // |x| < 1: result is 0 or ±1.
    if (toward_pos_inf && !neg) return T(1);
    if (toward_neg_inf && neg) return T(-1);
    return fp::copysign_bits(T(0), x);
  }
  const B frac_mask = Tr::mantissa_mask >> e;
  B b = fp::to_bits(x);
  if ((b & frac_mask) == 0) return x;  // integral already
  const bool bump = (toward_pos_inf && !neg) || (toward_neg_inf && neg);
  b &= ~frac_mask;
  T t = fp::from_bits<T>(b);
  if (bump) t += neg ? T(-1) : T(1);
  return t;
}

}  // namespace

template <typename T>
T ceil_exact(T x) noexcept {
  return round_to_integral(x, /*toward_pos_inf=*/true, /*toward_neg_inf=*/false);
}

template <typename T>
T floor_exact(T x) noexcept {
  return round_to_integral(x, false, true);
}

template <typename T>
T trunc_exact(T x) noexcept {
  return round_to_integral(x, false, false);
}

template <typename T>
T fmin_ieee(T x, T y) noexcept {
  if (fp::is_nan_bits(x)) return y;
  if (fp::is_nan_bits(y)) return x;
  if (fp::is_zero_bits(x) && fp::is_zero_bits(y))
    return fp::sign_bit(x) ? x : y;  // -0 < +0
  return x < y ? x : y;
}

template <typename T>
T fmax_ieee(T x, T y) noexcept {
  if (fp::is_nan_bits(x)) return y;
  if (fp::is_nan_bits(y)) return x;
  if (fp::is_zero_bits(x) && fp::is_zero_bits(y))
    return fp::sign_bit(x) ? y : x;
  return x > y ? x : y;
}

template double fmod_exact<double>(double, double) noexcept;
template float fmod_exact<float>(float, float) noexcept;
template double ceil_exact<double>(double) noexcept;
template float ceil_exact<float>(float) noexcept;
template double floor_exact<double>(double) noexcept;
template float floor_exact<float>(float) noexcept;
template double trunc_exact<double>(double) noexcept;
template float trunc_exact<float>(float) noexcept;
template double fmin_ieee<double>(double, double) noexcept;
template float fmin_ieee<float>(float, float) noexcept;
template double fmax_ieee<double>(double, double) noexcept;
template float fmax_ieee<float>(float, float) noexcept;

}  // namespace gpudiff::vmath::core
