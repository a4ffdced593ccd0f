#pragma once
// Arbitrary-precision fixed-point arithmetic, just big enough to derive the
// high-precision constants the math libraries need (bits of 2/pi for
// Payne-Hanek reduction, split pi/2 constants for Cody-Waite reduction).
//
// Rather than embedding a long table of magic bits copied from elsewhere,
// we *compute* pi at startup with Machin's formula
//     pi = 16*atan(1/5) - 4*atan(1/239)
// in ~1500-bit fixed point, then long-divide to obtain 2/pi.  The derivation
// is verified by unit tests against known prefixes of pi.

#include <cstdint>
#include <vector>

namespace gpudiff::vmath::core {

/// Unsigned fixed-point number in [0, 2^32) with `limbs` 32-bit fraction
/// limbs: value = int_part + sum(frac[i] * 2^(-32*(i+1))).
class BigFixed {
 public:
  explicit BigFixed(std::size_t limbs) : frac_(limbs, 0) {}

  std::uint32_t int_part = 0;

  std::uint32_t limb(std::size_t i) const noexcept { return frac_[i]; }

  /// this := a / d  (d small, nonzero).
  void set_quotient(const BigFixed& a, std::uint32_t d);
  /// this := this + a  (ignoring carry beyond the integer limb).
  void add(const BigFixed& a);
  /// this := this - a  (requires this >= a).
  void sub(const BigFixed& a);
  /// this := this * m  (m small; integer part may wrap — callers keep it small).
  void mul_small(std::uint32_t m);
  bool is_zero() const noexcept;

  /// Compare fraction+int: -1/0/+1.
  int compare(const BigFixed& a) const noexcept;

  /// Extract `count` bits of the fraction starting at fraction bit `pos`
  /// (bit 0 = weight 2^-1).  count <= 64.
  std::uint64_t extract_bits(std::size_t pos, unsigned count) const noexcept;

  /// Set fraction bit `pos` (weight 2^-(pos+1)) to 1.
  void set_fraction_bit(std::size_t pos) noexcept;

 private:
  std::vector<std::uint32_t> frac_;
};

/// atan(1/x) for small integer x, to `limbs` 32-bit limbs of precision.
BigFixed big_atan_inv(std::uint32_t x, std::size_t limbs);

/// pi to `limbs` limbs (Machin's formula).
BigFixed big_pi(std::size_t limbs);

/// 2/pi to `limbs` limbs (long division of 2 by pi).
BigFixed big_two_over_pi(std::size_t limbs);

}  // namespace gpudiff::vmath::core
