#include "vmath/core/reduce.hpp"

#include <cmath>
#include <mutex>
#include <vector>

#include "fp/bits.hpp"
#include "vmath/core/bigfixed.hpp"
#include "vmath/core/dd.hpp"

namespace gpudiff::vmath::core {

namespace {

constexpr std::size_t kLimbs = 44;  // 1408 fraction bits of 2/pi

/// Everything derived from the high-precision constants, computed once.
struct ReductionConstants {
  std::vector<std::uint64_t> two_over_pi_words;  // 64-bit packed fraction
  // pi/2 split into exact 33-significant-bit pieces (fdlibm layout) plus
  // rounded tails; piece k satisfies: n * piece is exact for n < 2^20.
  double pio2_1 = 0, pio2_1t = 0;
  double pio2_2 = 0, pio2_2t = 0;
  double pio2_3 = 0, pio2_3t = 0;
  double inv_pio2 = 0;    // 2/pi rounded to double
  DD pio2;                // pi/2 as dd
};

/// Value of fraction bits [start, start+count) of v as an exact double
/// (count <= 53 so the integer fits a double mantissa).
double frac_window(const BigFixed& v, std::size_t start, unsigned count) {
  const std::uint64_t w = v.extract_bits(start, count);
  return std::ldexp(static_cast<double>(w), -static_cast<int>(start + count));
}

/// Find the first set fraction bit at index >= start (assumes one exists).
std::size_t first_set_bit(const BigFixed& v, std::size_t start) {
  std::size_t pos = start;
  while (v.extract_bits(pos, 1) == 0) ++pos;
  return pos;
}

/// Remaining tail of pi/2's fraction from bit `start` on, rounded to double.
double frac_tail(const BigFixed& v, std::size_t start) {
  const std::size_t s = first_set_bit(v, start);
  const double hi = frac_window(v, s, 53);
  const double lo = frac_window(v, s + 53, 53);
  return hi + lo;  // one rounding; tail beyond 106 bits is negligible here
}

const ReductionConstants& constants() {
  static const ReductionConstants c = [] {
    ReductionConstants rc;
    const BigFixed two_over_pi = big_two_over_pi(kLimbs);
    rc.two_over_pi_words.reserve(kLimbs / 2);
    for (std::size_t w = 0; w + 1 < kLimbs; w += 2)
      rc.two_over_pi_words.push_back(two_over_pi.extract_bits(w * 32, 64));

    // pi/2 = 1.f0 f1 f2 ... (int part 1).  Build the 33-bit pieces.
    BigFixed pio2(kLimbs);
    pio2.set_quotient(big_pi(kLimbs), 2);
    // Piece 1: 1 + first 32 fraction bits (33 significant bits, exact).
    rc.pio2_1 = 1.0 + frac_window(pio2, 0, 32);
    rc.pio2_1t = frac_tail(pio2, 32);
    // Piece 2: 33 significant bits of the tail starting at its leading 1.
    std::size_t s2 = first_set_bit(pio2, 32);
    rc.pio2_2 = frac_window(pio2, s2, 33);
    rc.pio2_2t = frac_tail(pio2, s2 + 33);
    std::size_t s3 = first_set_bit(pio2, s2 + 33);
    rc.pio2_3 = frac_window(pio2, s3, 33);
    rc.pio2_3t = frac_tail(pio2, s3 + 33);

    // pi/2 as dd.
    const double p_hi = 1.0 + frac_window(pio2, 0, 52);  // 53 sig bits, exact
    const double p_lo = frac_tail(pio2, 52);
    const DD p = quick_two_sum(p_hi, p_lo);
    rc.pio2 = p;

    // 2/pi rounded to double: 0.101... -> take top 54 bits & round via dd add.
    const BigFixed& t = two_over_pi;
    const std::size_t lead = first_set_bit(t, 0);  // bit 0 (2/pi > 1/2)
    const double i_hi = frac_window(t, lead, 53);
    const double i_lo = frac_window(t, lead + 53, 53);
    rc.inv_pio2 = i_hi + i_lo;
    return rc;
  }();
  return c;
}

/// Round-to-nearest-integer for |v| < 2^51 without touching the FP env.
double nearest_int(double v) {
  const double magic = 6755399441055744.0;  // 1.5 * 2^52
  return (v + magic) - magic;
}

// ---------------------------------------------------------------------------
// Medium range: Cody-Waite with 2 or 3 pieces.
// ---------------------------------------------------------------------------

Reduced cody_waite(double x, ReduceStyle style) {
  const ReductionConstants& c = constants();
  const double fn = nearest_int(x * c.inv_pio2);
  const int n = static_cast<int>(fn);

  double z = x - fn * c.pio2_1;  // exact: fn*pio2_1 representable, Sterbenz-ish
  double w = fn * c.pio2_1t;
  double r = z - w;
  double lo = (z - r) - w;

  if (style == ReduceStyle::CodyWaite3) {
    // Detect cancellation: if r lost more than ~17 bits vs x, refine.
    const int exp_x = fp::raw_exponent(x);
    int exp_r = fp::raw_exponent(r);
    if (exp_x - exp_r > 16) {
      const double z1 = z;
      z = z1 - fn * c.pio2_2;
      w = fn * c.pio2_2t - ((z1 - z) - fn * c.pio2_2);
      r = z - w;
      lo = (z - r) - w;
      exp_r = fp::raw_exponent(r);
      if (exp_x - exp_r > 49) {
        const double z2 = z;
        z = z2 - fn * c.pio2_3;
        w = fn * c.pio2_3t - ((z2 - z) - fn * c.pio2_3);
        r = z - w;
        lo = (z - r) - w;
      }
    }
  }
  return {r, lo, n & 3};
}

// ---------------------------------------------------------------------------
// Payne-Hanek: exact reduction via the computed bits of 2/pi.
// ---------------------------------------------------------------------------

/// Read 64 bits of the 2/pi fraction starting at bit offset `pos`.
std::uint64_t read_bits64(const std::vector<std::uint64_t>& words, std::size_t pos) {
  const std::size_t w = pos / 64;
  const unsigned sh = static_cast<unsigned>(pos % 64);
  const std::uint64_t hi = w < words.size() ? words[w] : 0;
  if (sh == 0) return hi;
  const std::uint64_t lo = (w + 1) < words.size() ? words[w + 1] : 0;
  return (hi << sh) | (lo >> (64 - sh));
}

/// 256-bit little-endian accumulator (q[0] = least significant word).
struct U256 {
  std::uint64_t q[4] = {0, 0, 0, 0};

  void add_shifted(__uint128_t value, int word_shift) {
    // Add value * 2^(64*word_shift).
    std::uint64_t lo = static_cast<std::uint64_t>(value);
    std::uint64_t hi = static_cast<std::uint64_t>(value >> 64);
    unsigned carry = 0;
    for (int i = word_shift; i < 4; ++i) {
      std::uint64_t add;
      if (i == word_shift) add = lo;
      else if (i == word_shift + 1) add = hi;
      else add = 0;
      const __uint128_t s = static_cast<__uint128_t>(q[i]) + add + carry;
      q[i] = static_cast<std::uint64_t>(s);
      carry = static_cast<unsigned>(s >> 64);
    }
  }

  /// Bits [hi_bit .. hi_bit-count+1] as an integer (count <= 53).  Bits
  /// below 0 (and above 255) read as 0.
  std::uint64_t extract(int hi_bit, int count) const {
    const int lo_bit = hi_bit - count + 1;
    const std::uint64_t mask = (std::uint64_t{1} << count) - 1;
    if (hi_bit < 0) return 0;
    // A window reaching below bit 0 is the window at bit 0 shifted up.
    if (lo_bit < 0) return (bits_from(0) << -lo_bit) & mask;
    return bits_from(lo_bit) & mask;
  }

  /// The 64 bits starting at bit `lo` (lo >= 0), two words shifted and
  /// merged.
  std::uint64_t bits_from(int lo) const {
    const int wi = lo / 64;
    const int sh = lo % 64;
    const std::uint64_t low = wi < 4 ? q[wi] >> sh : 0;
    const std::uint64_t high = sh != 0 && wi + 1 < 4 ? q[wi + 1] << (64 - sh) : 0;
    return low | high;
  }
};

Reduced payne_hanek(double ax) {
  const ReductionConstants& c = constants();
  using Tr = fp::FloatTraits<double>;
  const auto bits = fp::to_bits(ax);
  const std::uint64_t mant = (bits & Tr::mantissa_mask) | (Tr::mantissa_mask + 1);
  const int e0 = fp::unbiased_exponent(ax) - 52;  // ax = mant * 2^e0
  // Bits of 2/pi with weight >= 2^3 in (2/pi)*2^e0 contribute multiples of 8
  // to mant * (2/pi) * 2^e0; drop them.  (PH is only used for large ax, so
  // e0 - 3 >= 0 always holds here.)
  const std::size_t start = static_cast<std::size_t>(e0 > 3 ? e0 - 3 : 0);
  const int sh = e0 - static_cast<int>(start);  // in [0, 3]

  const std::uint64_t f1 = read_bits64(c.two_over_pi_words, start);
  const std::uint64_t f2 = read_bits64(c.two_over_pi_words, start + 64);
  const std::uint64_t f3 = read_bits64(c.two_over_pi_words, start + 128);

  // Q = mant * (f1*2^128 + f2*2^64 + f3); then x*(2/pi) == Q * 2^(sh-192)
  // modulo multiples of 8.
  U256 Q;
  Q.add_shifted(static_cast<__uint128_t>(mant) * f3, 0);
  Q.add_shifted(static_cast<__uint128_t>(mant) * f2, 1);
  Q.add_shifted(static_cast<__uint128_t>(mant) * f1, 2);

  const int point = 192 - sh;  // binary point position: fraction = bits below
  int n = static_cast<int>(Q.extract(point + 2, 3));  // integer part mod 8

  // Fraction as three exact 53-bit chunks.
  const double c1 = std::ldexp(static_cast<double>(Q.extract(point - 1, 53)), -53);
  const double c2 = std::ldexp(static_cast<double>(Q.extract(point - 54, 53)), -106);
  const double c3 = std::ldexp(static_cast<double>(Q.extract(point - 107, 53)), -159);
  DD frac = dd_add(dd_add(DD{c1, 0.0}, DD{c2, 0.0}), c3);

  // Round to nearest multiple of pi/2: if frac >= 1/2, go to the next n.
  if (frac.hi >= 0.5) {
    n = (n + 1) & 7;
    frac = dd_add(frac, -1.0);
  }
  const DD r = dd_mul(c.pio2, frac);
  return {r.hi, r.lo, n & 3};
}

}  // namespace

Reduced rem_pio2(double x, ReduceStyle style) {
  const double ax = fp::abs_bits(x);
  // Medium range: |x| < 2^20 * pi/2 (fdlibm's bound for Cody-Waite).
  Reduced red;
  if (ax < 1647099.0) {
    red = cody_waite(ax, style);
  } else {
    red = payne_hanek(ax);
  }
  if (fp::sign_bit(x)) {
    // sin/cos symmetry: reduce |x|, then negate the remainder and quadrant.
    red.hi = -red.hi;
    red.lo = -red.lo;
    red.quadrant = (4 - red.quadrant) & 3;
  }
  return red;
}

void pio2_dd(double* hi, double* lo) {
  const DD p = [] {
    const auto& c = constants();
    return c.pio2;
  }();
  *hi = p.hi;
  *lo = p.lo;
}

std::uint64_t two_over_pi_word(std::size_t n) {
  const auto& words = constants().two_over_pi_words;
  return n < words.size() ? words[n] : 0;
}

}  // namespace gpudiff::vmath::core
